package durable

import (
	"os"
	"path/filepath"
	"testing"

	"omniwindow/internal/packet"
	"omniwindow/internal/wire"
)

// BenchmarkRecover times a restart on a steady-state directory shaped like
// the repository benchmark's flow_churn_durable workload: OpenStore and
// Recover, which read every live segment back and fold each live column
// from its frames. The directory holds 5 live sub-windows of 31 000 AFRs,
// logged in 128-record frames between each one's trigger and finish, and
// the manifest of the last boundary; dir_MB is its size on disk.
func BenchmarkRecover(b *testing.B) {
	const (
		live    = 5
		afrs    = 31000
		perSend = 128
	)
	src := b.TempDir()
	s, err := OpenStore(src, 0, Options{})
	if err != nil {
		b.Fatal(err)
	}
	batch := make([]packet.AFR, afrs)
	for sw := uint64(0); sw < 2*live; sw++ {
		if err := s.AppendTrigger(sw, afrs); err != nil {
			b.Fatal(err)
		}
		for i := range batch {
			batch[i] = packet.AFR{Key: key(int(sw)<<16 | i), Attr: uint64(i%4 + 1), SubWindow: sw, Seq: uint32(i)}
		}
		for i := 0; i < afrs; i += perSend {
			if err := s.AppendBatch(0, sw, false, batch[i:min(i+perSend, afrs)]); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.AppendFinish(sw); err != nil {
			b.Fatal(err)
		}
		snap := &wire.Snapshot{LastFinished: sw, HasFinished: true}
		for l := max(int(sw)-live+1, 0); l <= int(sw); l++ {
			snap.Live = append(snap.Live, uint64(l))
		}
		if err := s.Checkpoint(snap); err != nil {
			b.Fatal(err)
		}
	}
	s.Close()
	entries, err := os.ReadDir(src)
	if err != nil {
		b.Fatal(err)
	}
	var size int64
	files := make(map[string][]byte, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			b.Fatal(err)
		}
		files[e.Name()] = data
		size += int64(len(data))
	}

	dir := filepath.Join(b.TempDir(), "ckpt")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := os.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
		if err := os.Mkdir(dir, 0o755); err != nil {
			b.Fatal(err)
		}
		for name, data := range files {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		s, err := OpenStore(dir, 0, Options{})
		if err != nil {
			b.Fatal(err)
		}
		snap, _, err := s.Recover()
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if len(snap.Columns) != live || len(snap.Columns[0].Cells) != afrs || len(s.Lost()) != 0 {
			b.Fatalf("recovered %d columns, lost %v: want %d columns of %d cells", len(snap.Columns), s.Lost(), live, afrs)
		}
		s.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(size)/(1<<20), "dir_MB")
}
