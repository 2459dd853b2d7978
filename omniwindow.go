// Package omniwindow is a from-scratch reproduction of "OmniWindow: A
// General and Efficient Window Mechanism Framework for Network Telemetry"
// (SIGCOMM 2023). It provides the public API over the internal substrates:
// a Deployment wires a simulated RMT switch (data plane), the sub-window
// mechanism, the AFR collect-and-reset machinery and the controller into a
// complete system that turns a packet trace into per-window telemetry
// results under tumbling, sliding, session or user-defined windows of
// arbitrary size.
//
// Quickstart:
//
//	app := func(region int) afr.StateApp {
//		return telemetry.NewFrequencyApp(sketch.NewCountMin(4, 1<<14, uint64(region)), 1<<14)
//	}
//	d, err := omniwindow.New(omniwindow.Config{
//		SubWindow:  100 * time.Millisecond,
//		Plan:       window.SlidingPlan(5, 1), // 500 ms window, 100 ms slide
//		Kind:       afr.Frequency,
//		Threshold:  1000,
//		AppFactory: app,
//		Slots:      1 << 14,
//	})
//	results := d.Run(pkts)
package omniwindow

import (
	"fmt"
	"time"

	"omniwindow/internal/afr"
	"omniwindow/internal/controller"
	"omniwindow/internal/durable"
	"omniwindow/internal/faults"
	"omniwindow/internal/obs"
	"omniwindow/internal/packet"
	"omniwindow/internal/switchsim"
	"omniwindow/internal/window"
)

// Config describes an OmniWindow deployment on one switch plus its
// controller.
type Config struct {
	// SubWindow is the sub-window duration for the default timeout
	// signal. Ignored when Signal is set.
	SubWindow time.Duration
	// Signal optionally replaces the timeout signal (counter-, session-
	// or user-defined windows, §5).
	Signal window.Signal
	// Plan maps sub-windows to complete windows (size and slide in
	// sub-window units).
	Plan window.Plan
	// Kind is the merge pattern of the telemetry statistic.
	Kind afr.Kind
	// Threshold is the detection threshold over merged window values.
	Threshold uint64
	// DistinctCounter optionally overrides distinct-summary counting.
	DistinctCounter afr.DistinctCounter
	// CaptureValues copies merged per-flow values into window results.
	CaptureValues bool
	// Shards is the number of hash partitions of each controller's
	// key-value table; window assembly runs one worker per shard.
	// <= 0 defaults to runtime.GOMAXPROCS(0); 1 forces the sequential
	// controller. Results are identical for every shard count.
	Shards int

	// AppFactory builds one region's application state, sized for one
	// sub-window's traffic. Called once per memory region.
	AppFactory func(region int) afr.StateApp
	// KeyOf is the application's flowkey definition for tracking (§4.1):
	// it maps a packet to the key the AFR machinery enumerates; ok=false
	// skips tracking (e.g. the packet fails the query's filter). Nil
	// tracks every packet's 5-tuple.
	KeyOf func(p *packet.Packet) (packet.FlowKey, bool)
	// Slots is the per-register entry count the in-switch reset
	// enumerates (usually the app's row width).
	Slots int
	// Tracker sizes the flowkey tracking structures; zero value uses
	// DefaultTrackerConfig.
	Tracker afr.TrackerConfig
	// CollectionPackets is the number of concurrently recirculating
	// collection/clear packets (the paper uses 3 without RDMA, 16 with).
	CollectionPackets int
	// Grace is how long after a sub-window terminates the controller
	// waits before starting AFR generation, absorbing out-of-order
	// packets (§4.2). Defaults to the cost model's ControllerWait.
	Grace time.Duration

	// CheckpointDir enables controller durability: every ingested AFR
	// batch, trigger, spike and finish is appended to one write-ahead log
	// here, and each sub-window boundary commits a checkpoint manifest
	// (temp-file + rename; the columns stay in the log) — a deployment
	// restarted on the same directory, under any Shards count, replays
	// back to the exact pre-crash state.
	// In RDMA mode the WAL covers records at controller-ingest time (drain
	// and fallback), and a failover re-registers the memory region.
	// Empty disables durability.
	CheckpointDir string
	// Standby enables the hot standby: a lease-based health probe
	// detects primary death, and the standby takes over mid-window with a
	// controller rebuilt from CheckpointDir's log, as a restart would —
	// what the log lacks of the in-flight sub-window is recovered through
	// the ordinary NACK/retransmit loop before the region resets. Requires
	// CheckpointDir. What promotes the standby — a crash of the primary,
	// a partition between the two — comes only from the in-package chaos
	// suites' test plan; no program can schedule one.
	Standby bool

	// RDMA enables the §7 collection path: AFRs land in registered
	// controller memory via simulated WRITE verbs, with hot keys cached
	// in a switch-side address MAT.
	RDMA bool
	// HotThreshold is how many sub-window appearances make a key hot.
	HotThreshold int
	// AddressMATSize bounds the switch-side address MAT.
	AddressMATSize int

	// DebugAddr, when non-empty, serves the runtime observability endpoint
	// on this address ("127.0.0.1:0" picks a free port; read it back with
	// DebugURL): Prometheus text on /metrics, the window-lifecycle trace
	// ring as JSON on /debug/windows, and the standard net/http/pprof
	// profiles on /debug/pprof/. Empty, with Obs nil, registers nothing:
	// the hot paths carry nil handles whose calls are allocation-free
	// no-ops (see internal/obs), and only Stats reads the event counters.
	// Close the endpoint with CloseDebug.
	DebugAddr string
	// Obs optionally supplies an existing observability registry to
	// instrument into, instead of (or in addition to) DebugAddr, so the
	// caller keeps a handle on it. Setting either Obs or DebugAddr enables
	// instrumentation. A registry serves one deployment: the deployment's
	// and its store's counter families read the first one registered.
	Obs *obs.Registry

	// plan is what the in-package chaos suites inject; the zero value is
	// a healthy deployment with every default.
	plan testPlan
}

// testPlan holds the fault schedules and the recovery knobs the chaos
// suites vary, each as the type its layer already takes.
type testPlan struct {
	// afrFaults draws the fate of every controller-bound AFR packet, first
	// transmissions and retransmissions alike: drop or duplicate (the
	// in-process path carries structs, not bytes). A *faults.Injector is
	// one; the field asks only for its per-packet draw.
	afrFaults interface{ Packet() faults.PacketAction }
	// retry bounds the NACK/retransmit recovery of lost AFRs (§8); its
	// backoff waits are virtual time charged to the C&R budget. Nil is
	// controller.DefaultRetryPolicy; MaxRetries 0 disables recovery, so
	// windows with losses finalize Incomplete.
	retry *controller.RetryPolicy
	// crash kills the controller at sub-window boundaries. Without
	// Standby the deployment halts (restart it on the same CheckpointDir);
	// with Standby it fails over.
	crash *faults.CrashSchedule
	// partition cuts the primary's lease renewals at chosen boundaries:
	// all a partition can take from a standby that reads only the log. A
	// cut that expires the lease promotes the standby behind a fencing
	// term; the old primary's writes are fenced and it self-demotes, to be
	// re-admitted as the new standby at the first uncut boundary.
	partition *faults.PartitionSchedule
	// leaseTTL is the primary-liveness lease in virtual time; the wait for
	// it to lapse is charged to the C&R budget. <= 0 is 2×SubWindow
	// (2×Grace without a fixed sub-window length).
	leaseTTL time.Duration
	// durable opens the checkpoint/WAL store: a durable.FaultFS in FS
	// injects disk faults, SegmentBytes caps a WAL segment and RetryLimit
	// bounds the store's retries after a transient fault.
	durable durable.Options
	// rdmaFaults schedules RDMA transport failures; rdmaReplayDepth bounds
	// the PSN replay window (0 is the transport's 8192).
	rdmaFaults      *faults.RDMASchedule
	rdmaReplayDepth int
}

// Stats aggregates a deployment run's behaviour for the micro-benchmarks.
type Stats struct {
	// Packets is the number of trace packets processed.
	Packets int
	// SubWindows is the number of terminated-and-collected sub-windows.
	SubWindows int
	// Spills counts flow keys spilled to the controller because the
	// flowkey array was full.
	Spills int
	// Spikes counts latency-spike packets forwarded to the controller.
	Spikes int
	// SpikesMerged counts spike copies the controller's software path
	// actually merged (each distinct packet exactly once; duplicates and
	// too-late copies are not merged).
	SpikesMerged int
	// AFRs counts collected flow records.
	AFRs int
	// HotAFRs and ColdAFRs split the RDMA path's records (records, not
	// verbs: a batch's cold records travel as one append verb).
	HotAFRs, ColdAFRs int
	// FallbackAFRs counts records rerouted mid-sub-window from the RDMA
	// transport to the packet C&R path (QP down, retries exhausted, cold
	// ring full, or replay budget spent), and records that carry a
	// distinct-count summary, which the transport never takes.
	FallbackAFRs int
	// RDMAReplayed counts the records of verbs re-applied by the PSN-gap
	// NACK/replay loop.
	RDMAReplayed int
	// Retransmitted counts AFRs re-queried and re-sent by the
	// reliability protocol (attempts; the fault layer may still drop
	// some of them, triggering further rounds).
	Retransmitted int
	// RecoveryRounds counts NACK rounds across all sub-windows.
	RecoveryRounds int
	// IncompleteSubWindows counts sub-windows whose announced AFRs had not
	// all reached the controller once recovery and the drain were done;
	// the windows they belong to are marked Incomplete.
	IncompleteSubWindows int
	// CollectVirtual is the total modeled C&R time across sub-windows
	// (enumeration + reset recirculation + injection), plus the durable
	// store's IO wait (retry backoffs, injected slow IO) taken at each
	// boundary's finish. omniwindow_cr_collect_seconds and
	// MaxCollectVirtual exclude the IO wait.
	CollectVirtual time.Duration
	// MaxCollectVirtual is the worst single sub-window's C&R time; it
	// must stay strictly below the sub-window duration for two regions to
	// suffice (§6).
	MaxCollectVirtual time.Duration
	// ControllerCPUVirtual is the modeled controller-CPU time spent
	// receiving and parsing (zero for RDMA hot-path records).
	ControllerCPUVirtual time.Duration
	// RecircPasses is the total number of recirculation pipeline passes.
	RecircPasses int
	// Failovers counts hot-standby promotions — crash failovers and
	// partition-triggered takeovers. Crash failover happens at most once,
	// but a re-admitted node becomes the new standby and can promote
	// again, so repeated partitions can push this past 1.
	Failovers int
	// Demotions counts zombie-primary self-demotions: the partitioned old
	// primary observed its own fencing (a durable write returned
	// ErrFenced, or its lease lapsed under a promoted standby) and stopped
	// emitting.
	Demotions int
	// Readmissions counts demoted former primaries re-admitted as the new
	// standby, each at the first boundary whose renewal is not cut.
	Readmissions int
	// FencedWrites counts durable mutations rejected because the writer's
	// fencing term was stale — the zombie primary's post-promotion write
	// attempts. Mirrors the store's counter for the run.
	FencedWrites int
	// PartitionEvents counts sub-window boundaries whose lease renewal a
	// partition cut.
	PartitionEvents int
	// SuppressedWindows counts windows a promotion re-finished but did not
	// emit, the old primary having emitted them: finishes the log replays,
	// and sub-windows past its end (a degraded stretch), charged Missing.
	// The duplicate-finalizer guard: every window has one emitter.
	SuppressedWindows int
	// ReplayedWindows counts windows re-emitted by WAL replay during
	// recovery, included in Results in their original positions.
	ReplayedWindows int
	// DurabilityGaps counts durable writes skipped (or failed) while the
	// deployment ran in degraded durability. It is a write count, not a
	// record count: one skipped AFR write covers up to one delivery batch
	// (128 records). Pressure, not damage: the
	// live windows stayed byte-identical; only a crash or failover inside
	// the degraded stretch turns gaps into Missing records.
	DurabilityGaps int
	// DurabilityHeals counts successful degraded→durable re-entries (a
	// boundary heal probe cut a fresh checkpoint on new WAL generations).
	DurabilityHeals int
	// QuarantinedSegments counts the damaged files renamed aside — by
	// recovery or the boundary scrubber — instead of aborting: WAL
	// segments and checkpoint manifests alike, despite the name.
	// Their unreplayable records surface as Missing.
	QuarantinedSegments int
}

// Deployment is a running OmniWindow instance.
type Deployment struct {
	cfg     Config
	sw      *switchsim.Switch
	manager *window.Manager
	engine  *afr.Engine
	// ctrl is the serving controller: New builds it, and a promotion
	// replaces it (standby.go).
	ctrl *controller.Controller

	// transport carries each boundary's AFRs to the controller: packets,
	// or the §7 verbs (transport.go).
	transport collectTransport

	spilled map[uint64][]packet.FlowKey
	pending []pendingCR
	// results holds the completed windows.
	results                 []controller.WindowResult
	stats                   Stats // what Stats() reports beside ctr's event counters
	now                     int64
	packets, spills, spikes int // on the packet goroutine; publish copies them into ctr
	ctr                     counters

	// regionOwner tracks which sub-window's state each memory region
	// currently holds, so stale terminations cannot reset a region a
	// newer sub-window has taken over.
	regionOwner [2]uint64
	regionOwned [2]bool

	// Durability and failover (nil/zero unless CheckpointDir is set).
	store      *durable.Store
	standby    bool // a standby watches the lease
	lease      *durable.Lease
	failedOver bool
	// term is this incarnation's fencing term — the writer identity every
	// durable mutation carries. A partition promotion CASes the store to
	// term+1 for the standby; the old primary's writes then fence.
	term uint64
	// demoted: a self-demoted former primary is parked until re-admission.
	demoted   bool
	crashed   bool
	crashedAt uint64
	storeErr  error
	// storeDead: the store itself died (crash hook or closed) — durable
	// logging is over for this incarnation. degraded: disk faults
	// exhausted the store's retry budget — writes are skipped and counted
	// as gaps until the boundary heal probe succeeds.
	storeDead bool
	degraded  bool
	// unattested/unattestedFrom: open after crash-restart recovery when
	// the durable record ends before the crash point (a degraded stretch,
	// a quarantined tail). Sub-windows from unattestedFrom up to the
	// first one this incarnation observes traffic for cannot be proven
	// empty — they are charged Missing so their windows assemble
	// Incomplete instead of silently partial.
	unattested     bool
	unattestedFrom uint64

	// Observability (zero unless Config.Obs or Config.DebugAddr is set).
	reg      *obs.Registry
	obs      deployObs
	debugSrv *obs.Server

	// scratch is the pipeline's packet in flight: ProcessPacket's copy of a
	// traffic packet, or a collection's control packet (injectSpecial).
	// Deliveries are single-threaded per deployment, so one suffices.
	scratch packet.Packet
}

// pendingCR is a terminated sub-window awaiting its grace period.
type pendingCR struct {
	sw  uint64
	due int64
}

// validate rejects configurations New cannot build. It reads cfg as the
// caller wrote it; withDefaults runs after.
func (cfg *Config) validate() error {
	if cfg.Signal == nil && cfg.SubWindow <= 0 {
		return fmt.Errorf("omniwindow: SubWindow must be positive when no custom Signal is given")
	}
	if err := cfg.Plan.Validate(); err != nil {
		return err
	}
	if cfg.Standby && cfg.CheckpointDir == "" {
		return fmt.Errorf("omniwindow: Standby requires CheckpointDir — the standby promotes from its log")
	}
	if cfg.AppFactory == nil {
		return fmt.Errorf("omniwindow: AppFactory is required")
	}
	if cfg.Slots <= 0 {
		return fmt.Errorf("omniwindow: Slots must be positive")
	}
	return nil
}

// withDefaults resolves every zero-means-default field of a validated
// configuration.
func (cfg Config) withDefaults() Config {
	if cfg.Signal == nil {
		cfg.Signal = window.TimeoutSignal{Interval: int64(cfg.SubWindow)}
	}
	if cfg.Tracker.BloomBits == 0 {
		cfg.Tracker = afr.DefaultTrackerConfig()
	}
	cfg.Tracker.Regions = 2
	if cfg.CollectionPackets <= 0 {
		cfg.CollectionPackets = 3
		if cfg.RDMA {
			cfg.CollectionPackets = 16
		}
	}
	if cfg.Grace <= 0 {
		cfg.Grace = switchsim.DefaultCosts().ControllerWait
	}
	if cfg.HotThreshold <= 0 {
		cfg.HotThreshold = 3
	}
	if cfg.AddressMATSize <= 0 {
		cfg.AddressMATSize = 4096
	}
	return cfg
}

// newController builds the app's controller — a primary, or a promoted
// standby's, which must agree with it on everything. Config.validate
// already checked the plan, the one thing the controller rejects.
func newController(cfg *Config) *controller.Controller {
	return controller.New(controller.Config{
		Plan:            cfg.Plan,
		Kind:            cfg.Kind,
		Threshold:       cfg.Threshold,
		DistinctCounter: cfg.DistinctCounter,
		CaptureValues:   cfg.CaptureValues,
		Shards:          cfg.Shards,
	})
}

// newEngine builds the AFR engine over each region's application state.
func newEngine(cfg *Config, regions window.Regions) (*afr.Engine, error) {
	apps := []afr.StateApp{cfg.AppFactory(0), cfg.AppFactory(1)}
	for r, a := range apps {
		switch {
		case a == nil:
			return nil, fmt.Errorf("omniwindow: app factory returned nil for region %d", r)
		case a.Slots() != cfg.Slots:
			return nil, fmt.Errorf("omniwindow: region %d app has %d slots, config says %d", r, a.Slots(), cfg.Slots)
		}
	}
	engine := afr.NewEngine(afr.NewTracker(cfg.Tracker), apps, regions)
	if cfg.KeyOf != nil {
		engine.SetKeyFunc(cfg.KeyOf)
	}
	return engine, nil
}

// New validates the configuration and builds a deployment.
func New(cfg Config) (*Deployment, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	d := &Deployment{
		cfg:     cfg,
		spilled: make(map[uint64][]packet.FlowKey),
	}
	d.sw = switchsim.New(0)

	regions := window.NewRegions(cfg.Tracker.Regions, cfg.Slots)
	d.manager = window.NewManager(cfg.Signal, regions)
	var err error
	if d.engine, err = newEngine(&d.cfg, regions); err != nil {
		return nil, err
	}
	d.ctrl = newController(&d.cfg)
	d.transport = newTransport(d)
	d.engine.SetAFRPort(func(recs []packet.AFR, summ []packet.Summary) { d.deliverRecords(packet.OWAFR, recs, summ) })

	if cfg.CheckpointDir != "" {
		if err := d.openDurability(); err != nil {
			return nil, err
		}
	}
	if err := d.setupObs(); err != nil {
		return nil, err
	}
	if err := d.deployResources(); err != nil {
		return nil, err
	}
	d.installProgram()
	if d.store != nil {
		if err := d.recover(); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// DurabilityErr reports the first checkpoint/WAL write failure, if any.
// A fault that survived the store's retry budget flips the deployment to
// degraded durability (writes skipped and counted as DurabilityGaps, a
// boundary heal probe re-enters durable mode); the recorded error is the
// first one ever seen and persists across heals as an audit trail. The
// omniwindow_durable_degraded gauge shows the live mode.
func (d *Deployment) DurabilityErr() error { return d.storeErr }

// CloseDurability flushes and closes the checkpoint/WAL store (a no-op
// without CheckpointDir). Call it when the deployment is done so a later
// deployment can reopen the directory.
func (d *Deployment) CloseDurability() error {
	if d.store == nil {
		return nil
	}
	return d.store.Close()
}

// Switch exposes the simulated switch (resource ledger, cost model).
func (d *Deployment) Switch() *switchsim.Switch { return d.sw }

// Controller exposes the controller (per-sub-window timing breakdowns).
func (d *Deployment) Controller() *controller.Controller { return d.ctrl }

// Stats returns run statistics, reading each event's one counter: the ones
// the registry scrapes (d.ctr), the RDMA transport's and the store's.
func (d *Deployment) Stats() Stats {
	d.publish()
	s, c := d.stats, &d.ctr
	s.Packets, s.Spills, s.Spikes = int(c.packets.Load()), int(c.spills.Load()), int(c.spikes.Load())
	s.AFRs, s.Retransmitted = int(c.afrs.Load()), int(c.retransmitted.Load())
	s.FallbackAFRs, s.DurabilityGaps = int(c.fallbacks.Load()), int(c.durabilityGaps.Load())
	s.Demotions, s.Readmissions = int(c.demotions.Load()), int(c.readmissions.Load())
	s.PartitionEvents, s.SuppressedWindows = int(c.partitionEvents.Load()), int(c.suppressed.Load())
	if rp, ok := d.transport.(*rdmaPath); ok {
		s.RDMAReplayed = rp.tr.Stats().Replayed
	}
	if d.store != nil {
		s.QuarantinedSegments = int(d.store.Quarantined())
		s.FencedWrites = int(d.store.FencedWrites())
	}
	return s
}

// Results returns the windows completed so far.
func (d *Deployment) Results() []controller.WindowResult { return d.results }
