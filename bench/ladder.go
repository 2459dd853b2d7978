package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"omniwindow/internal/afr"
	"omniwindow/internal/controller"
	"omniwindow/internal/durable"
	"omniwindow/internal/hashing"
	"omniwindow/internal/packet"
	"omniwindow/internal/rdma"
	"omniwindow/internal/switchsim"
	"omniwindow/internal/window"
	"omniwindow/internal/wire"
)

// rungSum is the time (and, where asked, the allocations) one rung of the
// ladder took over all sub-windows, with the number of work items it
// handled.
type rungSum struct {
	dur            time.Duration
	mallocs, bytes uint64
	items          int
}

// per divides a total by the rung's work items.
func (r rungSum) per(total float64) float64 { return ratio(total, float64(r.items)) }

func (r rungSum) nsPer() float64      { return r.per(float64(r.dur.Nanoseconds())) }
func (r rungSum) mallocsPer() float64 { return r.per(float64(r.mallocs)) }
func (r rungSum) bytesPer() float64   { return r.per(float64(r.bytes)) }
func (r rungSum) ms() float64         { return millis(r.dur) }

// ladderResult is the layer ladder's outcome: one sum per rung, keyed by
// the rung's span name, plus the counts read at the same boundaries.
type ladderResult struct {
	rungs map[string]*rungSum

	subWindows      int
	tableSize       int // controller table rows, largest over the boundaries
	pendingLen      int // rdma replay window length before drain, largest
	hotAFRs, afrs   int
	fallbackAFRs    int
	walBytes        int64 // WAL bytes on disk before each checkpoint, summed
	checkpointBytes int64 // checkpoint file size, largest
	fsOps           uint64
	rotations       int64
	openStore       time.Duration
}

// ladder pushes the trace's sub-window slices through each layer's public
// functions in isolation, the output of one rung feeding the next:
//
//	slice -> switchsim.Inject (no program) -> window.Manager.OnPacket
//	-> afr.Engine.Update (with Tracker.Track and the app's sketch update
//	timed alone beside it) -> collection, inject-key and reset packets
//	through a bare switch running Engine.HandleSpecial -> the AFR packets
//	into Controller.Receive, and through rdma.Transport.Send/Drain into
//	Controller.IngestAFRs -> FinishSubWindow -> the WAL appends,
//	ExportState, wire.EncodeSnapshot and Store.Checkpoint.
//
// Every workload climbs every rung, also those its deployment does not
// use, so that a layer's cost on this traffic is known before a change
// turns it on.
type ladder struct {
	rec    *recorder
	id     int
	parent int
	res    *ladderResult
}

// run times f as one rung of sub-window sw over items work items.
func (l *ladder) run(name string, sw, items int, allocs bool, f func()) {
	var m0, m1 runtime.MemStats
	if allocs {
		runtime.ReadMemStats(&m0)
	}
	start := time.Now()
	f()
	end := time.Now()
	if allocs {
		runtime.ReadMemStats(&m1)
	}
	l.rec.add(name, l.parent, l.id, sw, start, end)
	r := l.res.rungs[name]
	if r == nil {
		r = &rungSum{}
		l.res.rungs[name] = r
	}
	r.dur += end.Sub(start)
	r.items += items
	r.mallocs += m1.Mallocs - m0.Mallocs
	r.bytes += m1.TotalAlloc - m0.TotalAlloc
}

// walBytes sums the sizes of dir's files other than the checkpoint.
func walBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && e.Name() != checkpointFile {
			n += info.Size()
		}
	}
	return n
}

// What the ladder, assembling the layers itself, has to repeat because no
// Config field or exported name carries it: the checkpoint's file name in
// internal/durable and the cold buffer omniwindow.New gives the transport.
// Everything else comes from the workload's Config.
const (
	checkpointFile = "checkpoint.snap"
	rdmaBufCap     = 1 << 18
)

func runLadder(w workload, trace []record, tmpRoot string, rec *recorder, id int) (*ladderResult, error) {
	procs := runtime.GOMAXPROCS(0)
	res := &ladderResult{rungs: make(map[string]*rungSum), subWindows: w.SubWindows}
	start := time.Now()
	l := &ladder{rec: rec, id: id, res: res}
	l.parent = rec.open("ladder", -1, id, -1, start)

	cfg := w.config()
	slots := cfg.Slots
	regions := window.NewRegions(2, slots)
	mgr := window.NewManager(window.TimeoutSignal{Interval: int64(subWindow)}, regions)
	tcfg := afr.DefaultTrackerConfig()
	engine := afr.NewMultiEngine(afr.NewTracker(tcfg),
		[][]afr.StateApp{{newApp(0)}, {newApp(1)}}, regions)
	soloTracker := afr.NewTracker(tcfg)
	soloApp := newApp(0)

	bare := switchsim.New(0)
	bare.SetProgram(func(*switchsim.Pass) {})
	special := switchsim.New(0)
	special.SetProgram(func(pass *switchsim.Pass) { engine.HandleSpecial(pass) })

	newCtrl := func() *controller.Controller {
		return controller.New(controller.Config{
			Plan: cfg.Plan, Kind: cfg.Kind, Threshold: cfg.Threshold, Shards: cfg.Shards,
		})
	}
	// byPacket takes the AFR packets one by one, as the packet path
	// delivers them; byBatch takes what the RDMA transport drained;
	// oneProc repeats byPacket's finish on a single processor.
	byPacket, byBatch, oneProc := newCtrl(), newCtrl(), newCtrl()
	shards := byPacket.Shards()

	transport := rdma.NewTransport(rdma.TransportConfig{
		Rows: cfg.AddressMATSize, Lanes: cfg.Plan.Size, BufCap: rdmaBufCap,
	})
	hot := controller.NewHotTracker(cfg.AddressMATSize, cfg.HotThreshold)

	dir, err := os.MkdirTemp(tmpRoot, "ladder-")
	if err != nil {
		return nil, fmt.Errorf("ladder store directory: %w", err)
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	// The fault seam with no schedule injects nothing and counts the
	// filesystem operations, which the bare OSFS does not.
	store, err := durable.OpenStore(dir, shards, durable.Options{FS: durable.NewFaultFS(durable.OSFS{}, nil)})
	if err != nil {
		return nil, fmt.Errorf("ladder store: %w", err)
	}
	res.openStore = time.Since(t0)
	defer store.Close()
	var storeErr error
	note := func(err error) {
		if err != nil && storeErr == nil {
			storeErr = err
		}
	}
	var snapBuf []byte

	next := 0
	for k := 0; k < w.SubWindows; k++ {
		lo := next
		for next < len(trace) && trace[next].Time < int64(k+1)*int64(subWindow) {
			next++
		}
		slice := trace[lo:next]
		sw := uint64(k)
		region := regions.Index(sw)

		// Packet-phase rungs, each on a fresh copy of every packet, as
		// ProcessPacket hands the pipeline one.
		var q packet.Packet
		l.run("switchsim.inject", k, len(slice), true, func() {
			for i := range slice {
				q = slice[i].packet()
				bare.Inject(&q)
			}
		})
		l.run("window.onpacket", k, len(slice), false, func() {
			for i := range slice {
				q = slice[i].packet()
				mgr.OnPacket(&q, q.Time)
			}
		})
		l.run("afr.track", k, len(slice), false, func() {
			for i := range slice {
				soloTracker.Track(region, slice[i].Key)
			}
		})
		soloTracker.ResetRegion(region)
		l.run("sketch.update", k, len(slice), false, func() {
			for i := range slice {
				q = slice[i].packet()
				soloApp.Update(&q)
			}
		})
		for s := 0; s < slots; s++ {
			soloApp.ResetSlot(s)
		}
		var spilled []packet.FlowKey
		l.run("afr.update", k, len(slice), false, func() {
			for i := range slice {
				q = slice[i].packet()
				if key, spill := engine.Update(region, &q); spill {
					spilled = append(spilled, key)
				}
			}
		})

		// Boundary rungs on the switch side.
		engine.BeginCollection(sw)
		keys := engine.Tracker().Keys(region)
		keyCount := len(keys)
		var afrPkts []*packet.Packet
		collect := func(out switchsim.Output) {
			for _, c := range out.ToController {
				if c.OW.Flag == packet.OWAFR {
					afrPkts = append(afrPkts, c)
				}
			}
		}
		l.run("afr.enumerate", k, keyCount, true, func() {
			for i := 0; i < cfg.CollectionPackets; i++ {
				collect(special.Inject(&packet.Packet{OW: packet.OWHeader{Flag: packet.OWCollection}}))
			}
		})
		l.run("afr.inject_key", k, len(spilled), false, func() {
			for i, key := range spilled {
				collect(special.Inject(&packet.Packet{OW: packet.OWHeader{
					Flag: packet.OWInjectKey, Key: key, Index: uint32(keyCount + i), SubWindow: sw,
				}}))
			}
		})
		app := engine.App(region)
		l.run("sketch.query", k, keyCount, false, func() {
			for _, key := range keys {
				app.Query(key)
			}
		})
		l.run("afr.reset", k, slots, false, func() {
			for i := 0; i < cfg.CollectionPackets; i++ {
				special.Inject(&packet.Packet{OW: packet.OWHeader{Flag: packet.OWReset}})
			}
		})
		nAFRs := len(afrPkts) // one record per packet: a single app is deployed
		res.afrs += nAFRs
		trigger := &packet.Packet{OW: packet.OWHeader{
			Flag: packet.OWTrigger, SubWindow: sw, KeyCount: uint32(keyCount),
		}}

		// RDMA transport, then the controller's batch ingest of what it
		// drained.
		transport.BeginBoundary(sw)
		l.run("rdma.send", k, nAFRs, false, func() {
			for _, c := range afrPkts {
				r := c.OW.AFRs[0]
				if hot.Observe(r.Key) {
					transport.Promote(r.Key)
				}
				isHot, delivered := transport.Send(r)
				switch {
				case !delivered:
					res.fallbackAFRs++
				case isHot:
					res.hotAFRs++
				}
			}
		})
		res.pendingLen = max(res.pendingLen, transport.PendingLen())
		var cold, hotRecs []packet.AFR
		l.run("rdma.drain", k, nAFRs, false, func() {
			transport.BeginCollect(sw)
			transport.MissingPSNs()
			transport.TakeUnapplied()
			cold, hotRecs = transport.Drain(sw)
		})
		byBatch.Receive(trigger)
		l.run("controller.ingest", k, len(cold)+len(hotRecs), false, func() {
			byBatch.IngestAFRs(cold)
			byBatch.IngestAFRs(hotRecs)
		})
		if len(byBatch.FinishSubWindow(sw)) > 0 {
			for _, key := range hot.Decay() {
				transport.Demote(key)
			}
		}

		// Packet-path controller.
		l.run("controller.receive", k, nAFRs, false, func() {
			byPacket.Receive(trigger)
			for _, c := range afrPkts {
				byPacket.Receive(c)
			}
		})
		l.run("controller.finish", k, nAFRs, true, func() { byPacket.FinishSubWindow(sw) })
		res.tableSize = max(res.tableSize, byPacket.TableSize())

		oneProc.Receive(trigger)
		for _, c := range afrPkts {
			oneProc.Receive(c)
		}
		runtime.GOMAXPROCS(1)
		l.run("controller.finish_1proc", k, nAFRs, false, func() { oneProc.FinishSubWindow(sw) })
		runtime.GOMAXPROCS(procs)

		// Durability, in the order the deployment writes: a WAL frame per
		// delivered packet, then the finish record, the scrub and a
		// checkpoint of the exported state.
		ops0 := store.FSOps()
		note(store.AppendTrigger(sw, uint32(keyCount)))
		l.run("durable.wal_append", k, nAFRs, false, func() {
			for _, c := range afrPkts {
				note(store.AppendBatch(hashing.Shard(c.OW.AFRs[0].Key, shards), sw, false, c.OW.AFRs))
			}
		})
		res.walBytes += walBytes(dir)
		var snap *wire.Snapshot
		l.run("controller.export_state", k, nAFRs, false, func() { snap = byPacket.ExportState() })
		l.run("wire.snapshot_encode", k, 1, false, func() { snapBuf = wire.EncodeSnapshot(snapBuf, snap) })
		l.run("durable.checkpoint", k, 1, false, func() {
			note(store.AppendFinish(sw))
			store.SealBoundary()
			_, err := store.Scrub()
			note(err)
			note(store.Checkpoint(snap))
		})
		res.fsOps += store.FSOps() - ops0
		if info, err := os.Stat(filepath.Join(dir, checkpointFile)); err == nil {
			res.checkpointBytes = max(res.checkpointBytes, info.Size())
		}
	}
	res.rotations = store.Rotations()
	rec.close(l.parent, time.Now())
	if storeErr != nil {
		return nil, fmt.Errorf("ladder store: %w", storeErr)
	}
	return res, nil
}

// onPath sums the rungs whose work the workload's deployment does once per
// packet or per boundary: what a replay's wall time should add up to if
// the layers were all there is. Track, the sketch update and the sketch
// query run inside Update and the enumeration, and the snapshot encoding
// inside Checkpoint, so they are not added again.
func (r *ladderResult) onPath(w workload) time.Duration {
	names := []string{
		"switchsim.inject", "window.onpacket", "afr.update",
		"afr.enumerate", "afr.inject_key", "afr.reset", "controller.finish",
	}
	if w.RDMA {
		names = append(names, "rdma.send", "rdma.drain", "controller.ingest")
	} else {
		names = append(names, "controller.receive")
	}
	if w.Durable {
		names = append(names, "durable.wal_append", "controller.export_state", "durable.checkpoint")
	}
	var sum time.Duration
	for _, n := range names {
		sum += r.rungs[n].dur
	}
	return sum
}
