// Package fabric runs a topology of OmniWindow deployments wired over
// simulated links, with a switch-side failure model: power-cycles that
// wipe a switch's registers, stalls that miss collection deadlines, and
// slow clocks that drift. It is the network-wide layer of the paper's §5
// consistency model hardened for partial failure.
//
// Synchronization is epoch-based. The fabric runs at one epoch (starting
// at 1); every first-hop stamp carries it. A rebooted switch restarts at
// epoch 0, so the stamps it writes before resynchronizing are rejected by
// every synced switch — a stale counter can never move another switch's
// window or be monitored anywhere. The rebooted switch resyncs by adopting
// the first in-epoch stamp it forwards, or immediately from a controller
// beacon when Config.Beacons is enabled.
//
// Failures surface as explicit degraded coverage, never silent
// undercounting: every node-level data loss is recorded as a coverage gap
// and charged to the merged window's DegradedSwitches; windows with no
// gap on any route they carried are exact — identical to a fault-free run.
package fabric

import (
	"fmt"
	"sort"

	"omniwindow"
	"omniwindow/internal/controller"
	"omniwindow/internal/faults"
	"omniwindow/internal/netsim"
	"omniwindow/internal/obs"
	"omniwindow/internal/packet"
	"omniwindow/internal/window"
)

// SwitchConfig describes one switch of the topology.
type SwitchConfig struct {
	// Config is the switch's OmniWindow deployment configuration.
	// CaptureValues is forced on: the fabric merges per-flow values.
	Config omniwindow.Config
	// Faults is the switch's failure schedule (nil = healthy).
	Faults *faults.SwitchSchedule
}

// Config describes the fabric.
type Config struct {
	// Switches are the topology's nodes, addressed by index.
	Switches []SwitchConfig
	// Route maps a traffic packet to the ordered switch indexes it
	// traverses. It must be consistent per flow (all packets of a flow
	// take the same route) for merged windows to be exact. Nil routes
	// every packet through all switches in index order (a chain).
	Route func(p *packet.Packet) []int
	// LinkDelay is the per-link latency in virtual ns.
	LinkDelay int64
	// Beacons enables controller resync beacons: at every sub-window
	// boundary (and immediately after an observed reboot) the controller
	// broadcasts (epoch, sub-window) and unsynced switches snap back into
	// the fabric. Without beacons a rebooted switch resynchronizes only
	// from the first in-epoch stamp it forwards.
	Beacons bool
	// StrikeLimit is how many health strikes (stale-stamp reports traced
	// back to the switch, missed collection deadlines) quarantine a
	// switch. 0 disables quarantine.
	StrikeLimit int
	// QuarantineFor is how many sub-windows a quarantined switch sits out
	// before it is resynced and readmitted (<= 0 means 2). While
	// quarantined, the switch forwards traffic but monitors nothing, and
	// its reports are excluded from merged windows.
	QuarantineFor int

	// DebugAddr, when non-empty, serves one aggregated observability
	// endpoint for the whole fabric: every switch's deployment registers
	// into a shared registry with a switch="i" label, plus fabric-level
	// health metrics (strikes, quarantines, readmissions) and the merged
	// window-lifecycle trace ring. Empty leaves the fabric uninstrumented.
	DebugAddr string
	// Obs optionally supplies the shared registry instead of (or in
	// addition to) DebugAddr. Either enables instrumentation. Per-switch
	// Config.Obs/ObsLabels are overridden by the fabric's.
	Obs *obs.Registry
}

// CoverageGap is one switch's span of sub-windows with missing or partial
// data (wiped by a reboot, unmonitored while unsynced or quarantined).
type CoverageGap struct {
	Switch   int
	From, To uint64 // inclusive
}

// Window is one merged network-wide window.
type Window struct {
	// Start and End delimit the window's sub-windows, inclusive.
	Start, End uint64
	// Detected are the flows satisfying the query over merged values.
	Detected []packet.FlowKey
	// Values are the merged per-flow statistics: for each flow, the
	// maximum across the switches on its route. Healthy switches on a
	// route agree (the consistency model monitors each packet into the
	// same sub-window fabric-wide), and a faulty switch can only
	// undercount, so the maximum is the network-wide value.
	Values map[packet.FlowKey]uint64
	// SpikePackets is the total number of latency-spike copies merged
	// through the switches' software paths for this window (each distinct
	// copy exactly once per switch controller).
	SpikePackets int
	// Incomplete reports transport-level loss: a covering switch's window
	// finalized with announced records missing.
	Incomplete bool
	// Degraded reports that at least one route this window carried had no
	// fully-covering switch, so the merged statistics are a lower bound.
	// Exactly the windows with false here are byte-identical to a
	// fault-free run.
	Degraded bool
	// DegradedSwitches lists the switches whose faults caused the
	// degradation, sorted ascending.
	DegradedSwitches []int
	// Gaps are those switches' coverage gaps clipped to this window.
	Gaps []CoverageGap
}

// node is one switch plus its fabric-side health state.
type node struct {
	d     *omniwindow.Deployment
	sched *faults.SwitchSchedule

	strikes     int
	struck      map[strikeKey]bool
	quarantined bool
	freeAt      uint64 // fabric sub-window at which quarantine lifts

	gaps    []CoverageGap // closed gaps
	gapOpen bool          // an open gap awaiting resync
	gapFrom uint64

	// Fabric-health instrumentation (nil when observability is off).
	obsStrikes     *obs.Counter
	obsQuarantines *obs.Counter
	obsReadmits    *obs.Counter
}

// strikeKey dedups strikes to one per cause per fabric sub-window.
type strikeKey struct {
	sw    uint64
	cause uint8 // 0 stale-stamp origin, 1 stall
}

// Fabric is a running topology.
type Fabric struct {
	cfg   Config
	nodes []*node
	epoch uint64

	// Observability (nil unless Config.Obs or Config.DebugAddr is set).
	reg      *obs.Registry
	ring     *obs.Ring
	debugSrv *obs.Server

	paths map[string]*netsim.Path
	// routesBySub records, per stamped sub-window, the concrete routes
	// (post quarantine filtering) traffic took — the coverage domain of
	// each merged window.
	routesBySub map[uint64]map[string][]int

	fabricSW uint64 // high-water sub-window across the fabric
	started  bool

	// curRoute is the route of the packet currently in flight, for
	// attributing stale-stamp strikes to its stamping switch.
	curRoute []int

	violations []string
	// spikeSeen counts, per (switch, flow, seq, sub-window), how many
	// spike escapes the hook observed — the exactly-once cross-check
	// against the controllers' SpikePackets accounting.
	spikeSeen map[spikeObs]int
}

// spikeObs identifies one spike copy at one switch.
type spikeObs struct {
	node int
	key  packet.FlowKey
	seq  uint32
	sw   uint64
}

// New builds the fabric: one deployment per switch, all joined at epoch 1,
// each with the fabric's invariant-checking decision hook installed.
func New(cfg Config) (*Fabric, error) {
	if len(cfg.Switches) == 0 {
		return nil, fmt.Errorf("fabric: at least one switch is required")
	}
	if cfg.QuarantineFor <= 0 {
		cfg.QuarantineFor = 2
	}
	f := &Fabric{
		cfg:         cfg,
		epoch:       1,
		paths:       make(map[string]*netsim.Path),
		routesBySub: make(map[uint64]map[string][]int),
		spikeSeen:   make(map[spikeObs]int),
	}
	if cfg.Obs != nil || cfg.DebugAddr != "" {
		f.reg = cfg.Obs
		if f.reg == nil {
			f.reg = obs.NewRegistry()
		}
		f.ring = f.reg.Ring(0)
	}
	for i := range cfg.Switches {
		sc := cfg.Switches[i].Config
		sc.CaptureValues = true
		if f.reg != nil {
			// Every switch registers into the shared registry with a
			// switch label; the deployments' ring events interleave into
			// one fabric-wide lifecycle trace.
			sc.Obs = f.reg
			sc.ObsLabels = fmt.Sprintf("switch=%q", fmt.Sprint(i))
			sc.DebugAddr = "" // one fabric endpoint, not one per switch
		}
		d, err := omniwindow.New(sc)
		if err != nil {
			f.closeObs()
			return nil, fmt.Errorf("fabric: switch %d: %w", i, err)
		}
		d.ResyncBeacon(f.epoch, 0)
		n := &node{d: d, sched: cfg.Switches[i].Faults, struck: make(map[strikeKey]bool)}
		if f.reg != nil {
			l := fmt.Sprintf("{switch=%q}", fmt.Sprint(i))
			n.obsStrikes = f.reg.Counter("omniwindow_fabric_strikes_total"+l, "health strikes recorded against the switch")
			n.obsQuarantines = f.reg.Counter("omniwindow_fabric_quarantines_total"+l, "times the switch was quarantined")
			n.obsReadmits = f.reg.Counter("omniwindow_fabric_readmits_total"+l, "times the switch was resynced and readmitted")
		}
		f.nodes = append(f.nodes, n)
		f.installHook(i, n)
	}
	if cfg.DebugAddr != "" {
		srv, err := obs.Serve(cfg.DebugAddr, f.reg)
		if err != nil {
			return nil, fmt.Errorf("fabric: debug endpoint: %w", err)
		}
		f.debugSrv = srv
	}
	return f, nil
}

// closeObs tears down the debug endpoint during failed construction.
func (f *Fabric) closeObs() {
	if f.debugSrv != nil {
		f.debugSrv.Close()
	}
}

// Obs exposes the fabric's shared observability registry (nil when
// instrumentation is off).
func (f *Fabric) Obs() *obs.Registry { return f.reg }

// DebugURL returns the fabric debug endpoint's base URL ("" when
// DebugAddr was not configured).
func (f *Fabric) DebugURL() string { return f.debugSrv.URL() }

// CloseDebug stops the fabric debug endpoint; safe to call repeatedly.
func (f *Fabric) CloseDebug() error { return f.debugSrv.Close() }

// installHook registers the invariant checker on one switch: no
// stale-epoch stamp may ever be monitored or terminate sub-windows, and
// every spike escape is recorded for the exactly-once cross-check.
func (f *Fabric) installHook(idx int, n *node) {
	n.d.SetDecisionHook(func(p *packet.Packet, r window.Result) {
		switch {
		case r.StaleEpoch:
			if len(r.Terminated) > 0 {
				f.violations = append(f.violations, fmt.Sprintf(
					"switch %d: stale-epoch stamp terminated sub-windows %v", idx, r.Terminated))
			}
			// Trace the report back to the stamping switch and strike it.
			if len(f.curRoute) > 0 {
				f.strike(f.curRoute[0], 0)
			}
		case p.OW.HasSubWindow && !r.Stamped && p.OW.Epoch < r.Epoch:
			f.violations = append(f.violations, fmt.Sprintf(
				"switch %d: monitored a stamp from epoch %d while at epoch %d (sub-window %d)",
				idx, p.OW.Epoch, r.Epoch, p.OW.SubWindow))
		case r.Spike:
			f.spikeSeen[spikeObs{node: idx, key: p.Key, seq: p.Seq, sw: p.OW.SubWindow}]++
		default:
			// A monitored packet: its route covers the monitored
			// sub-window — the coverage domain of the merged windows.
			f.recordRoute(r.Monitor, f.curRoute)
		}
	})
}

// strike records one health strike against a switch (deduplicated per
// cause per fabric sub-window) and quarantines it at the strike limit.
func (f *Fabric) strike(idx int, cause uint8) {
	n := f.nodes[idx]
	if n.quarantined {
		return
	}
	k := strikeKey{sw: f.fabricSW, cause: cause}
	if n.struck[k] {
		return
	}
	n.struck[k] = true
	n.strikes++
	n.obsStrikes.Inc()
	if f.cfg.StrikeLimit > 0 && n.strikes >= f.cfg.StrikeLimit {
		n.quarantined = true
		n.freeAt = f.fabricSW + uint64(f.cfg.QuarantineFor)
		n.obsQuarantines.Inc()
		f.ring.Record(obs.StageQuarantine, f.fabricSW, idx, int64(n.freeAt))
		f.openGap(idx, f.fabricSW)
	}
}

// openGap starts (or extends) a switch's coverage gap at sub-window from.
func (f *Fabric) openGap(idx int, from uint64) {
	n := f.nodes[idx]
	if n.gapOpen {
		if from < n.gapFrom {
			n.gapFrom = from
		}
		return
	}
	n.gapOpen = true
	n.gapFrom = from
}

// closeGap ends a switch's open coverage gap at sub-window to, inclusive.
func (f *Fabric) closeGap(idx int, to uint64) {
	n := f.nodes[idx]
	if !n.gapOpen {
		return
	}
	n.gapOpen = false
	n.gaps = append(n.gaps, CoverageGap{Switch: idx, From: n.gapFrom, To: to})
}

// Process routes one traffic packet through its path. Packets must arrive
// in non-decreasing time order, as on a real tap.
func (f *Fabric) Process(p *packet.Packet) {
	route := f.liveRoute(p)
	if len(route) == 0 {
		return
	}
	f.curRoute = route
	f.pathFor(route).Run([]packet.Packet{*p})
	f.curRoute = nil
	f.advance()
}

// liveRoute is the packet's configured route with quarantined switches
// bypassed (they forward but do not monitor).
func (f *Fabric) liveRoute(p *packet.Packet) []int {
	var route []int
	if f.cfg.Route != nil {
		route = f.cfg.Route(p)
	} else {
		route = make([]int, len(f.nodes))
		for i := range route {
			route[i] = i
		}
	}
	live := route[:0:0]
	for _, idx := range route {
		if idx < 0 || idx >= len(f.nodes) {
			f.violations = append(f.violations, fmt.Sprintf("route names unknown switch %d", idx))
			continue
		}
		if !f.nodes[idx].quarantined {
			live = append(live, idx)
		}
	}
	return live
}

// pathFor returns (building on first use) the netsim path for a route.
func (f *Fabric) pathFor(route []int) *netsim.Path {
	key := routeKey(route)
	if p, ok := f.paths[key]; ok {
		return p
	}
	hops := make([]netsim.Hop, len(route))
	for i, idx := range route {
		n := f.nodes[idx]
		hops[i] = netsim.Hop{
			OffsetFunc: f.driftOf(n),
			Process: func(pk *packet.Packet, lt int64) {
				if n.quarantined {
					return // readmission outpaced path caching: pass through
				}
				pk.Time = lt
				fwds := n.d.ProcessAndForward(pk)
				if len(fwds) > 0 {
					// Carry the (possibly new) stamp to the next hop.
					pk.OW = fwds[0].OW
				}
			},
		}
	}
	var delays []int64
	if len(route) > 1 {
		delays = make([]int64, len(route)-1)
		for i := range delays {
			delays[i] = f.cfg.LinkDelay
		}
	}
	p := &netsim.Path{Hops: hops, LinkDelay: delays}
	f.paths[key] = p
	return p
}

// driftOf wires a switch's slow-clock schedule into its hop offset.
func (f *Fabric) driftOf(n *node) func() int64 {
	if n.sched == nil || n.sched.ClockDriftPerSub == 0 {
		return nil
	}
	return func() int64 { return n.sched.DriftAt(f.fabricSW) }
}

func routeKey(route []int) string {
	b := make([]byte, 0, len(route)*3)
	for _, idx := range route {
		b = append(b, byte(idx), byte(idx>>8), ',')
	}
	return string(b)
}

// recordRoute notes which route carried monitored traffic in which
// sub-window — the coverage domain of the merged windows.
func (f *Fabric) recordRoute(sw uint64, route []int) {
	if len(route) == 0 {
		return
	}
	m := f.routesBySub[sw]
	if m == nil {
		m = make(map[string][]int)
		f.routesBySub[sw] = m
	}
	key := routeKey(route)
	if _, ok := m[key]; !ok {
		m[key] = append([]int(nil), route...)
	}
}

// advance observes the fabric's sub-window high-water mark and, on each
// boundary crossed, applies the switches' fault schedules, broadcasts
// beacons, lifts elapsed quarantines and closes resynced gaps.
func (f *Fabric) advance() {
	cur := f.fabricSW
	for _, n := range f.nodes {
		if c := n.d.CurrentSubWindow(); c > cur {
			cur = c
		}
	}
	if !f.started {
		f.started = true
		f.boundary(f.fabricSW)
	}
	for b := f.fabricSW + 1; b <= cur; b++ {
		f.fabricSW = b
		f.boundary(b)
	}
	// Close gaps of switches that resynchronized through traffic.
	for i, n := range f.nodes {
		if n.gapOpen && !n.quarantined && n.d.Epoch() == f.epoch {
			f.closeGap(i, f.fabricSW)
		}
	}
}

// boundary applies fault schedules and controller actions at one fabric
// sub-window boundary.
func (f *Fabric) boundary(b uint64) {
	for i, n := range f.nodes {
		if n.quarantined {
			if b >= n.freeAt {
				// Readmit: force a resync and clean the slate.
				n.quarantined = false
				n.strikes = 0
				n.obsReadmits.Inc()
				f.ring.Record(obs.StageReadmit, b, i, 0)
				n.d.ResyncBeacon(f.epoch, b)
				f.closeGap(i, b)
			}
			continue
		}
		if n.sched.RebootAt(b) {
			f.rebootNode(i, b)
		}
		if n.sched.StallAt(b) {
			// Missed collection deadline: tardy data, a health strike.
			f.strike(i, 1)
		}
	}
	if f.cfg.Beacons {
		// Beacons only target unsynced switches: fast-forwarding a healthy
		// switch would skip terminating its in-flight sub-window and
		// silently strand that region's data.
		for i, n := range f.nodes {
			if n.quarantined || n.d.Epoch() >= f.epoch {
				continue
			}
			n.d.ResyncBeacon(f.epoch, b)
			if n.gapOpen {
				f.closeGap(i, b)
			}
		}
	}
}

// rebootNode power-cycles one switch and opens its coverage gap from the
// oldest sub-window whose data the wipe destroyed.
func (f *Fabric) rebootNode(idx int, b uint64) {
	from := b
	if oldest, destroyed := f.nodes[idx].d.Reboot(); destroyed && oldest < from {
		from = oldest
	}
	f.openGap(idx, from)
}

// Tick advances virtual time fabric-wide without traffic, firing timeout
// signals at every switch.
func (f *Fabric) Tick(now int64) {
	for _, n := range f.nodes {
		n.d.Tick(now)
	}
	f.advance()
}

// Run processes a whole trace and finalizes.
func (f *Fabric) Run(pkts []packet.Packet) []Window {
	for i := range pkts {
		f.Process(&pkts[i])
	}
	return f.Finalize()
}

// Finalize flushes every switch and returns the merged windows.
func (f *Fabric) Finalize() []Window {
	for i, n := range f.nodes {
		n.d.Finalize()
		if n.gapOpen {
			f.closeGap(i, f.fabricSW)
		}
	}
	return f.Windows()
}

// Node exposes one switch's deployment (stats, controller).
func (f *Fabric) Node(i int) *omniwindow.Deployment { return f.nodes[i].d }

// Epoch returns the fabric's synchronization epoch.
func (f *Fabric) Epoch() uint64 { return f.epoch }

// Quarantined reports whether a switch is currently quarantined.
func (f *Fabric) Quarantined(i int) bool { return f.nodes[i].quarantined }

// Strikes returns a switch's current health-strike count.
func (f *Fabric) Strikes(i int) int { return f.nodes[i].strikes }

// Gaps returns a switch's closed coverage gaps.
func (f *Fabric) Gaps(i int) []CoverageGap { return f.nodes[i].gaps }

// Violations returns the invariant violations observed so far. A healthy
// implementation returns none under any fault schedule: stale-epoch
// stamps are never monitored and never terminate sub-windows.
func (f *Fabric) Violations() []string { return f.violations }

// SpikeObservations returns how many spike escapes the fabric observed per
// (switch, flow, seq, sub-window) — each distinct observation must be
// merged at most once by that switch's controller.
func (f *Fabric) SpikeObservations() map[int]int {
	per := make(map[int]int)
	for obs := range f.spikeSeen {
		per[obs.node]++
	}
	return per
}

// Windows merges the per-switch windows completed so far into
// network-wide windows with coverage accounting.
func (f *Fabric) Windows() []Window {
	type wkey struct{ start, end uint64 }
	perNode := make([]map[wkey]controller.WindowResult, len(f.nodes))
	keys := make(map[wkey]bool)
	for i, n := range f.nodes {
		perNode[i] = make(map[wkey]controller.WindowResult)
		for _, w := range n.d.Results() {
			k := wkey{w.Start, w.End}
			perNode[i][k] = w
			keys[k] = true
		}
	}
	ordered := make([]wkey, 0, len(keys))
	for k := range keys {
		ordered = append(ordered, k)
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].end != ordered[j].end {
			return ordered[i].end < ordered[j].end
		}
		return ordered[i].start < ordered[j].start
	})

	out := make([]Window, 0, len(ordered))
	for _, k := range ordered {
		k := k
		out = append(out, f.mergeWindow(k.start, k.end, func(i int) (controller.WindowResult, bool) {
			w, ok := perNode[i][k]
			return w, ok
		}))
	}
	return out
}

// mergeWindow folds one window across switches and computes its coverage;
// get returns switch i's instance of the window, if it finished one.
func (f *Fabric) mergeWindow(start, end uint64, get func(i int) (controller.WindowResult, bool)) Window {
	w := Window{Start: start, End: end, Values: make(map[packet.FlowKey]uint64)}

	faulty := make([]bool, len(f.nodes))
	for i := range f.nodes {
		if _, ok := get(i); !ok {
			// The switch never finished this window: its coverage of the
			// span is missing entirely.
			faulty[i] = true
			continue
		}
		faulty[i] = f.nodeFaulty(i, start, end)
	}

	// Per-flow maximum across switches. A switch that carries a flow and
	// is healthy saw every packet of it (consistency model), so the max is
	// the network-wide value; faulty switches only undercount and can
	// never raise it above truth.
	for i := range f.nodes {
		res, ok := get(i)
		if !ok {
			continue
		}
		if res.Incomplete && !faulty[i] {
			w.Incomplete = true
		}
		w.SpikePackets += res.SpikePackets
		for k, v := range res.Values {
			if v > w.Values[k] {
				w.Values[k] = v
			}
		}
	}

	// Coverage: a route is covered when its stamping switch is healthy
	// (it saw every packet before any downstream rejection could occur)
	// or any switch on it is healthy with a healthy origin upstream; it
	// is uncovered when its origin is faulty — downstream switches
	// rejected its unsynced stamps, so nobody holds the full count — or
	// when every switch on it is faulty.
	degradedSet := make(map[int]bool)
	for sw := start; sw <= end; sw++ {
		for _, route := range f.routesBySub[sw] {
			uncovered := faulty[route[0]]
			if !uncovered {
				all := true
				for _, idx := range route {
					if !faulty[idx] {
						all = false
						break
					}
				}
				uncovered = all
			}
			if uncovered {
				w.Degraded = true
				for _, idx := range route {
					if faulty[idx] {
						degradedSet[idx] = true
					}
				}
			}
		}
	}
	for idx := range degradedSet {
		w.DegradedSwitches = append(w.DegradedSwitches, idx)
	}
	sort.Ints(w.DegradedSwitches)
	for _, idx := range w.DegradedSwitches {
		for _, g := range f.allGaps(idx) {
			if g.From <= end && g.To >= start {
				w.Gaps = append(w.Gaps, CoverageGap{Switch: idx, From: maxU64(g.From, start), To: minU64(g.To, end)})
			}
		}
	}

	// Detection re-runs the first switch's threshold over the merged values.
	thr := f.cfg.Switches[0].Config.Threshold
	for k, v := range w.Values {
		if v >= thr {
			w.Detected = append(w.Detected, k)
		}
	}
	sort.Slice(w.Detected, func(i, j int) bool { return keyLess(w.Detected[i], w.Detected[j]) })
	return w
}

// nodeFaulty reports whether a switch has a coverage gap overlapping the
// sub-window span [start, end].
func (f *Fabric) nodeFaulty(i int, start, end uint64) bool {
	for _, g := range f.allGaps(i) {
		if g.From <= end && g.To >= start {
			return true
		}
	}
	return false
}

// allGaps is a switch's closed gaps plus its open one, if any, extended
// to the fabric's current sub-window.
func (f *Fabric) allGaps(i int) []CoverageGap {
	n := f.nodes[i]
	if !n.gapOpen {
		return n.gaps
	}
	return append(append([]CoverageGap(nil), n.gaps...), CoverageGap{Switch: i, From: n.gapFrom, To: f.fabricSW})
}

func keyLess(a, b packet.FlowKey) bool {
	if a.SrcIP != b.SrcIP {
		return a.SrcIP < b.SrcIP
	}
	if a.DstIP != b.DstIP {
		return a.DstIP < b.DstIP
	}
	if a.SrcPort != b.SrcPort {
		return a.SrcPort < b.SrcPort
	}
	if a.DstPort != b.DstPort {
		return a.DstPort < b.DstPort
	}
	return a.Proto < b.Proto
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
