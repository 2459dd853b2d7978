package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"

	"omniwindow"
	"omniwindow/internal/obs"
	"omniwindow/internal/packet"
	"omniwindow/internal/switchsim"
)

// replayStats is what one replay of the trace through a fresh deployment
// measured, all of it from outside the program.
type replayStats struct {
	// New is the time omniwindow.New took, durable store open included.
	New time.Duration
	// Wall runs from the first packet in to the last window out;
	// PacketPhase and Boundary split it.
	Wall, PacketPhase, Boundary time.Duration
	// Closes holds one boundary time per sub-window: sub-window terminated
	// to its windows being in Results().
	Closes []time.Duration
	// CPU is the process's user+system time over Wall.
	CPU                 time.Duration
	Mallocs, AllocBytes uint64
	// RetainedBytes is the live heap the deployment still holds after the
	// replay, over the live heap before New.
	RetainedBytes int64
	Stats         omniwindow.Stats
	OpTimes       []omniwindow.OpTimes // the controller's O1-O5 per sub-window
	verdict
}

type replayOptions struct {
	tmpRoot string
	// rec and id are the span recorder (nil when untraced) and the replay's
	// number in it.
	rec *recorder
	id  int
	// obs turns the deployment's own instrumentation on.
	obs bool
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func heapAlloc() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// replay pushes the whole trace through a fresh deployment in one
// goroutine, closed loop: the next packet goes in when the previous call
// returns. Per sub-window it times the ProcessPacket loop and then the
// boundary, Tick(edge) .. packets inside the grace .. Tick(edge+grace),
// inside which collect, FinishSubWindow, the WAL and checkpoint writes and
// window emission all run.
func replay(w workload, trace []record, t *truth, opt replayOptions) (replayStats, error) {
	var s replayStats
	cfg := w.config()
	if w.Durable {
		dir, err := os.MkdirTemp(opt.tmpRoot, "ckpt-")
		if err != nil {
			return s, fmt.Errorf("checkpoint directory: %w", err)
		}
		defer os.RemoveAll(dir)
		cfg.CheckpointDir = dir
	}
	if opt.obs {
		cfg.Obs = obs.NewRegistry()
	}
	grace := int64(switchsim.DefaultCosts().ControllerWait)

	heapBefore := heapAlloc()
	t0 := time.Now()
	d, err := omniwindow.New(cfg)
	if err != nil {
		return s, err
	}
	s.New = time.Since(t0)
	defer d.CloseDurability()

	next := 0
	var p packet.Packet // one for all packets: ProcessPacket copies it
	feed := func(until int64) {
		for next < len(trace) && trace[next].Time < until {
			p = trace[next].packet()
			d.ProcessPacket(&p)
			next++
		}
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := time.Now()
	rec, id := opt.rec, opt.id
	root := rec.open("replay", -1, id, -1, start)
	at := start
	for k := 1; k <= w.SubWindows; k++ {
		edge := int64(k) * int64(subWindow)
		feed(edge)
		t1 := time.Now()
		d.Tick(edge)
		t2 := time.Now()
		feed(edge + grace)
		t3 := time.Now()
		d.Tick(edge + grace)
		t4 := time.Now()

		sw := k - 1
		rec.add("omniwindow.packet_phase", root, id, sw, at, t1)
		b := rec.open("omniwindow.boundary", root, id, sw, t1)
		rec.add("omniwindow.tick_terminate", b, id, sw, t1, t2)
		rec.add("omniwindow.grace_packets", b, id, sw, t2, t3)
		rec.add("omniwindow.tick_collect", b, id, sw, t3, t4)
		rec.close(b, t4)
		s.PacketPhase += t1.Sub(at)
		s.Boundary += t4.Sub(t1)
		s.Closes = append(s.Closes, t4.Sub(t1))
		at = t4
	}
	rec.close(root, at)
	s.Wall = at.Sub(start)
	s.CPU = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	s.Mallocs, s.AllocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc

	if next != len(trace) {
		return s, fmt.Errorf("replay fed %d of %d packets", next, len(trace))
	}
	if err := d.DurabilityErr(); err != nil {
		return s, fmt.Errorf("durable store: %w", err)
	}
	s.Stats = d.Stats()
	for sw := 0; sw < w.SubWindows; sw++ {
		s.OpTimes = append(s.OpTimes, d.Controller().Times(uint64(sw)))
	}
	s.verdict = checkWindows(w, t, d.Results())
	s.RetainedBytes = int64(heapAlloc()) - int64(heapBefore)
	runtime.KeepAlive(d)
	return s, nil
}
