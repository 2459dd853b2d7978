// Package durable is the controller's persistence layer: a write-ahead
// log of everything the controller ingests, and a checkpoint manifest at
// every sub-window boundary that says how much of the log the controller
// state covers, so a crashed controller (or a promoted standby) replays
// back to the exact pre-crash state. The log is the only data file: each
// AFR reaches disk once, as a frame, and recovery hands each live column
// back as the frames logged for it, for the controller to fold.
//
// Layout inside the directory:
//
//	checkpoint.snap       manifest: the commit point (wire.EncodeSnapshot; temp+rename)
//	wal-GGGGGG.log        log segments (generation G): AFR batches, spikes, column
//	                      records, triggers, finishes, sheds
//	term.ow               fencing term (term.go)
//	*.quarantined         segments or a manifest set aside as damaged
//
// Nothing is fsynced: "durable" means the state survives the process
// dying, not the machine losing power. Nothing in the layout depends on
// the controller's shard count, so a restart may change it.
//
// The log is one append stream: a sequence of generation-numbered
// segments, each opening with a wire.SegmentHeader naming its generation
// and the term of the writer that opened it. Segments rotate on a size cap,
// which bounds the blast radius of any single damaged file, and at every
// checkpoint, which deletes the segments no live sub-window needs any more.
//
// The log is written in groups. An append encodes its frame into the
// store's write group, and the group lands in one write once it holds
// 64 KiB or fills the active segment to its cap, before every control
// frame (trigger, finish, shed, spike, column record, each written on its
// own), and before every operation that reads, renames, seals or changes
// term (checkpoint, heal, scrub, recovery, a boundary seal, term CAS and
// adoption, Close). Flush writes it on demand: the deployment does so at
// each boundary before the region reset, after which the switch can no
// longer re-query what the group holds, and after the drain. Rotation is
// decided per frame, so the bytes on disk do not depend on how frames are
// grouped into writes. Frames still in the group when the process dies
// are lost with its memory.
//
// Every appended frame carries a log sequence number (LSN), issued under
// the store's lock in append order, so the segments read in generation
// order are the log in LSN order. A checkpoint records the LSN high-water
// mark it covers (ThroughLSN); replay skips frames at or below it, which
// makes a crash between the checkpoint rename and the segment deletion
// harmless — the stale frames are recognized and ignored, never
// double-applied.
//
// The storage failure doctrine: a torn tail (the partial frame a crash or
// a survived short write leaves at the end of a segment) ends that
// segment's replay at the last good frame and is not damage; a frame that
// fails its CRC, an unreadable file, or a damaged segment header is
// damage — the file is quarantined (renamed aside) rather than aborting
// recovery, and the LSNs that disappear with it surface as LostLSNRange
// gaps the caller must account as missing data. Transient write faults
// are retried with backoff behind a rotation (so the tear a failed
// attempt leaves behind is always a benign torn tail), a torn group
// resuming at its first frame not landed whole; persistent faults
// (ENOSPC, exhausted retries) lose the group's unwritten frames and
// surface to the caller, which drops to degraded durability rather than
// halting the window pipeline.
package durable

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"omniwindow/internal/faults"
	"omniwindow/internal/obs"
	"omniwindow/internal/packet"
	"omniwindow/internal/wire"
)

// ErrCrash is returned by Store operations when the configured crash hook
// fires: the simulated process died mid-operation. The store refuses all
// further writes, exactly as a dead process would.
var ErrCrash = errors.New("durable: simulated crash")

// ErrClosed is returned by operations on a store after Close.
var ErrClosed = errors.New("durable: store closed")

const (
	checkpointName   = "checkpoint.snap"
	checkpointTemp   = "checkpoint.snap.tmp"
	quarantineSuffix = ".quarantined"
	segPrefix        = "wal-"
	segSuffix        = ".log"

	defaultSegmentBytes = 256 << 10
	defaultRetryLimit   = 3

	// groupBytes bounds the write group (see appendLocked): a group lands
	// once it holds this many bytes, a quarter of a default segment.
	groupBytes = 64 << 10

	// retryBackoff is the first retry's backoff, doubling per attempt up
	// to retryMaxBackoff. Backoff is charged to the store's virtual
	// IO-wait accumulator (TakeIOWait), never slept.
	retryBackoff    = time.Millisecond
	retryMaxBackoff = 50 * time.Millisecond
)

// Options tunes OpenStore. The zero value gives the production defaults.
type Options struct {
	// FS is the filesystem seam; nil means the real filesystem (OSFS).
	FS FS
	// SegmentBytes rotates the active segment once it exceeds this size;
	// <= 0 means the 256 KiB default.
	SegmentBytes int
	// RetryLimit is how many times a transiently failed file operation is
	// retried; 0 means the default (3), negative disables retries.
	RetryLimit int
}

// LostLSNRange is a gap in the recovered LSN sequence: frames the store
// issued but could not replay, because the segment holding them was
// quarantined (or a checkpoint vanished) — or a live column a quarantined
// segment may have held part of (no LSNs). SWLow/SWHigh bound the
// sub-windows whose data may be damaged, taken from the nearest recovered
// neighbors; the caller must account every sub-window in the range as
// missing data so the windows spanning them surface as Incomplete instead
// of silently wrong.
type LostLSNRange struct {
	From, To      uint64 // inclusive LSN bounds of the gap
	SWLow, SWHigh uint64 // inclusive sub-window bounds possibly damaged
}

// Store manages one controller's checkpoint and write-ahead log segments.
type Store struct {
	dir  string
	fsys FS

	segBytes   int64
	retryLimit int

	lsn atomic.Uint64 // last issued LSN

	mu      sync.Mutex
	dead    bool
	deadErr error
	enc     []byte // snapshot encode scratch, reused under mu
	hdr     []byte // segment-header and term encode scratch
	rbuf    []byte // the scrub's read buffer, reused under mu
	lost    []LostLSNRange

	// The write group: frames encoded in LSN order but not yet written,
	// and where each ends and what segment.note needs of it.
	group   []byte
	gframes []groupFrame

	// The log: segs lists the live (non-quarantined, non-deleted)
	// segments in generation order; while f is open, the last one is the
	// active one, at path. setAside lists the generations quarantined.
	gen      uint64 // highest segment generation ever seen or opened
	f        File   // active segment handle; nil when none is open
	path     string
	segs     []segment
	setAside []uint64

	// The committed manifest's live list and last finish, the columns the
	// next checkpoint must re-log (cutFrom, cutTo: checkpoint.go), and the
	// newest segment the last scrub verified.
	live     []uint64
	lastFin  uint64
	hasFin   bool
	cutFrom  uint64
	cutTo    uint64
	scrubbed uint64

	// Fencing state (see term.go): curTerm is the authoritative term
	// (term file), writerTerm is the term this handle writes under.
	// Writes are accepted only while the two agree.
	curTerm     uint64
	writerTerm  uint64
	holder      uint32
	segTermHigh uint64 // newest segment-header term seen by recovery

	ioWait      atomic.Int64 // virtual ns: retry backoff (plus FS slow IO, drained in TakeIOWait)
	walErrs     atomic.Int64
	rotations   atomic.Int64
	quarantines atomic.Int64
	scrubErrs   atomic.Int64
	fenced      atomic.Int64

	// crash, when set, is consulted at named points inside mutating
	// operations; returning true aborts the operation with ErrCrash,
	// leaving behind whatever partial bytes a real crash would. Points:
	// "wal-append" (a torn half-frame is written first) and the
	// checkpoint's "checkpoint-temp", "checkpoint-rename" and
	// "wal-truncate" (see checkpoint.go).
	crash func(point string) bool

	// Nil-safe instrumentation handles (see Instrument).
	walLat      *obs.Histogram
	ckptLat     *obs.Histogram
	appends     *obs.Counter
	checkpoints *obs.Counter
	walBytes    *obs.Counter
	ckptBytes   *obs.Counter
}

// OpenStore creates (or reopens) the store in dir; the zero Options are the
// defaults. The second argument is ignored: it once gave the controller's
// shard count, which the on-disk layout no longer depends on. Reopening an
// existing directory resumes the LSN counter past every frame already on
// disk.
func OpenStore(dir string, _ int, opt Options) (*Store, error) {
	s := &Store{
		dir:        dir,
		fsys:       opt.FS,
		segBytes:   int64(opt.SegmentBytes),
		retryLimit: opt.RetryLimit,
		cutFrom:    noCut,
	}
	if s.fsys == nil {
		s.fsys = OSFS{}
	}
	if s.segBytes <= 0 {
		s.segBytes = defaultSegmentBytes
	}
	switch {
	case s.retryLimit == 0:
		s.retryLimit = defaultRetryLimit
	case s.retryLimit < 0:
		s.retryLimit = 0
	}

	if err := s.fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	if err := s.scanDir(); err != nil {
		return nil, err
	}
	// Resume the LSN counter past everything already durable, so new
	// frames never collide with replayed ones. Segments are opened
	// lazily on first append; nothing is written here. The recovery scan
	// also surfaces the newest segment-header term, which backs the term
	// file up if it is damaged or missing.
	s.mu.Lock()
	s.recoverLocked()
	s.loadTermLocked(s.segTermHigh)
	s.mu.Unlock()
	return s, nil
}

// segPath names the segment of generation gen, in six or more digits.
func (s *Store) segPath(gen uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%06d%s", segPrefix, gen, segSuffix))
}

// parseGen maps a file name (without any quarantine suffix) to the
// generation segPath put in it. Names of any other shape, such as the
// per-shard segments older releases wrote ("wal-000-000001.log") or the
// cut files they kept beside the log, don't parse and are ignored.
func parseGen(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	gen, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), 10, 64)
	return gen, err == nil && gen > 0
}

// scanDir lists the live segments in generation order and advances the
// generation counter past every segment seen, quarantined ones included,
// so new files never collide with old names.
func (s *Store) scanDir() error {
	entries, err := s.fsys.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	for _, e := range entries {
		name := strings.TrimSuffix(e.Name(), quarantineSuffix)
		if gen, ok := parseGen(name); ok {
			s.gen = max(s.gen, gen)
			if name == e.Name() {
				s.segs = append(s.segs, segment{gen: gen, path: s.segPath(gen)})
			} else {
				s.setAside = append(s.setAside, gen)
			}
		}
	}
	slices.SortFunc(s.segs, func(a, b segment) int { return cmp.Compare(a.gen, b.gen) })
	return nil
}

// segment is one live log file: its header and whole frames take size
// bytes (past them lies at most a torn tail), sws lists the sub-windows
// its records name and cols those it holds a column record of.
type segment struct {
	gen  uint64
	path string
	size int64
	sws  []uint64
	cols []uint64
}

// active is the active segment; f must be open.
func (s *Store) active() *segment { return &s.segs[len(s.segs)-1] }

// note records that a frame of sub-window sw, a column record if col,
// landed in the segment.
func (g *segment) note(sw uint64, col bool) {
	if !slices.Contains(g.sws, sw) {
		g.sws = append(g.sws, sw)
	}
	if col {
		g.cols = append(g.cols, sw)
	}
}

// groupFrame is one frame of the write group: the group offset it ends
// at, and its sub-window and whether it is a column record.
type groupFrame struct {
	end int
	sw  uint64
	col bool
}

// SetCrash installs the simulated-crash hook (tests only; see Store.crash).
func (s *Store) SetCrash(fn func(point string) bool) { s.crash = fn }

// Instrument registers the durability metric family on reg: WAL append
// and checkpoint latency distributions plus operation/byte/fault
// counters. The handles are nil-safe, so an uninstrumented store (the
// default) pays nothing. Call before the store carries traffic.
func (s *Store) Instrument(reg *obs.Registry) {
	s.walLat = reg.Histogram("omniwindow_durable_wal_append_seconds", "write-ahead log append latency (frame encode + write)", nil)
	s.ckptLat = reg.Histogram("omniwindow_durable_checkpoint_seconds", "checkpoint commit latency (column records, manifest write and rename, segment deletion; the controller's export is not included)", nil)
	s.appends = reg.Counter("omniwindow_durable_wal_appends_total", "write-ahead log frames appended")
	s.checkpoints = reg.Counter("omniwindow_durable_checkpoints_total", "checkpoints completed")
	s.walBytes = reg.Counter("omniwindow_durable_wal_bytes_total", "bytes appended to the write-ahead logs")
	s.ckptBytes = reg.Counter("omniwindow_durable_checkpoint_bytes_total", "bytes written per completed checkpoint (column records plus manifest)")
	reg.CounterFunc("omniwindow_durable_wal_errors_total", "write-ahead log append attempts that failed (before any retry succeeded)", s.walErrs.Load)
	reg.CounterFunc("omniwindow_durable_rotations_total", "WAL segments sealed (size cap, cadence, retry rotation, or checkpoint)", s.rotations.Load)
	reg.CounterFunc("omniwindow_durable_quarantined_segments_total", "damaged segments or manifests set aside during recovery or scrubbing", s.quarantines.Load)
	reg.CounterFunc("omniwindow_durable_scrub_errors_total", "scrub passes that could not verify a file (read failures)", s.scrubErrs.Load)
	reg.CounterFunc("omniwindow_durable_fenced_writes_total", "mutating operations rejected because the writer's fencing term was stale", s.fenced.Load)
}

// LSN returns the last issued log sequence number.
func (s *Store) LSN() uint64 { return s.lsn.Load() }

// Quarantined returns how many damaged files this store instance has set
// aside: WAL segments and manifests.
func (s *Store) Quarantined() int64 { return s.quarantines.Load() }

// WALErrors returns how many append attempts failed.
func (s *Store) WALErrors() int64 { return s.walErrs.Load() }

// Rotations returns how many segments have been sealed.
func (s *Store) Rotations() int64 { return s.rotations.Load() }

// Lost returns the LSN gaps and lost columns found by the most recent
// recovery pass (Open or Recover): state that was made durable but could
// not be restored.
func (s *Store) Lost() []LostLSNRange {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]LostLSNRange(nil), s.lost...)
}

// FSOps reports how many fault-drawable filesystem operations the store
// has issued, when the seam tracks them (FaultFS); 0 otherwise. Chaos
// tests use it to place ENOSPC stretches at run-relative positions.
func (s *Store) FSOps() uint64 {
	if f, ok := s.fsys.(interface{ Ops() uint64 }); ok {
		return f.Ops()
	}
	return 0
}

// FSFaults reports how many writes and renames the seam failed (FaultFS).
func (s *Store) FSFaults() uint64 {
	if f, ok := s.fsys.(interface{ Failed() uint64 }); ok {
		return f.Failed()
	}
	return 0
}

// TakeIOWait returns and resets the store's accumulated virtual IO wait
// in nanoseconds: retry backoff, plus any injected slow-IO latency when
// the filesystem seam reports it. The deployment charges this against
// its collection budget, keeping slow disks visible in virtual time
// without ever sleeping.
func (s *Store) TakeIOWait() int64 {
	w := s.ioWait.Swap(0)
	if f, ok := s.fsys.(interface{ TakeSlowWait() int64 }); ok {
		w += f.TakeSlowWait()
	}
	return w
}

// markDeadLocked transitions the store to its terminal state exactly
// once: the first cause wins, the write group is lost as a dead process's
// memory is, the active segment is closed, and all later operations return
// the same stable wrapped error.
func (s *Store) markDeadLocked(err error) {
	if s.dead {
		return
	}
	s.dead = true
	s.deadErr = err
	s.group, s.gframes = s.group[:0], s.gframes[:0]
	if s.f != nil {
		s.f.Close()
		s.f = nil
	}
}

// Close writes the group and closes the active segment, returning what
// the write returned. Idempotent; operations after Close return an error
// wrapping ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.flushLocked() // nothing to write once dead
	s.markDeadLocked(fmt.Errorf("durable: %w", ErrClosed))
	return err
}

// die marks the store dead at a crash point, simulating the partial write
// a real crash leaves: if frame is non-empty, its first half is written to
// f before the process "dies". Idempotent — a second crash point (or a
// concurrent appender) observes the first death's stable error.
func (s *Store) die(f File, frame []byte, point string) error {
	if s.dead {
		return s.deadErr
	}
	if f != nil && len(frame) > 0 {
		f.Write(frame[:len(frame)/2])
	}
	s.markDeadLocked(fmt.Errorf("durable: store dead (crashed at %q): %w", point, ErrCrash))
	return s.deadErr
}

// isFull reports a full-disk error — the one write fault retries can't
// help with.
func isFull(err error) bool {
	return errors.Is(err, faults.ErrDiskENOSPC) || errors.Is(err, syscall.ENOSPC)
}

// isMissing reports a missing file — the one read failure retries can't
// help with.
func isMissing(err error) bool { return errors.Is(err, iofs.ErrNotExist) }

// retry is the store's one retry loop: it runs op and retries a failure up
// to the RetryLimit budget, charging each backoff to ioWait, unless stop
// (nil: never) says the failure is persistent. op must not escape: the
// append path passes a closure and stays allocation-free.
func (s *Store) retry(stop func(error) bool, op func() error) error {
	backoff := retryBackoff
	err := op()
	for attempt := 0; err != nil && attempt < s.retryLimit && (stop == nil || !stop(err)); attempt++ {
		s.ioWait.Add(int64(backoff))
		backoff = min(2*backoff, retryMaxBackoff)
		err = op()
	}
	return err
}

// writeFile writes a whole file. Each attempt rewrites from scratch, so a
// torn attempt can't survive into the final content.
func (s *Store) writeFile(path string, data []byte) error {
	return s.retry(isFull, func() error { return s.fsys.WriteFile(path, data, 0o644) })
}

func (s *Store) rename(oldpath, newpath string) error {
	return s.retry(nil, func() error { return s.fsys.Rename(oldpath, newpath) })
}

// readFile reads a whole file into buf's backing array (nil: a fresh
// one) and returns the bytes read.
func (s *Store) readFile(path string, buf []byte) ([]byte, error) {
	err := s.retry(isMissing, func() (rerr error) {
		buf, rerr = s.fsys.ReadFile(path, buf)
		return rerr
	})
	return buf, err
}

// remove deletes a file; one already gone counts as removed.
func (s *Store) remove(path string) error {
	err := s.retry(isMissing, func() error { return s.fsys.Remove(path) })
	if isMissing(err) {
		return nil
	}
	return err
}

// sealLocked closes the active segment; the next append opens a fresh
// generation. The sealed file is final: replay reads it until its last
// good frame.
func (s *Store) sealLocked() {
	if s.f == nil {
		return
	}
	s.f.Close()
	s.f = nil
	s.rotations.Add(1)
}

// openSegmentLocked opens the log's next-generation segment and writes its
// header. On failure the log stays closed (s.f nil) and the caller decides
// whether to retry.
func (s *Store) openSegmentLocked() error {
	gen := s.gen + 1
	path := s.segPath(gen)
	f, err := s.fsys.Create(path)
	if err != nil {
		return err
	}
	s.hdr = wire.AppendSegmentHeader(s.hdr[:0], &wire.SegmentHeader{Gen: gen, Term: s.writerTerm})
	if n, werr := f.Write(s.hdr); werr != nil || n != len(s.hdr) {
		f.Close()
		s.remove(path)
		s.gen = gen // never reuse the name, even on failure
		if werr == nil {
			werr = io.ErrShortWrite
		}
		return werr
	}
	s.gen, s.f, s.path = gen, f, path
	s.segs = append(s.segs, segment{gen: gen, path: path, size: int64(len(s.hdr))})
	return nil
}

// flushLocked writes the group to the active segment, opening one
// lazily: one write, unless the disk faults. A failed attempt is retried
// with backoff behind a seal, so the torn bytes a short write may have
// left become a benign torn tail, and the retry resumes in a fresh
// segment at the first frame the failed attempt did not land whole: no
// LSN reaches disk twice. ENOSPC is persistent by definition and
// short-circuits the retries. The group is empty afterwards: a write that
// fails for good loses the frames it did not land and returns the error.
// A segment the group filled to the cap seals.
func (s *Store) flushLocked() error {
	if len(s.group) == 0 {
		return nil
	}
	off, i := 0, 0 // the group bytes and frames landed whole so far
	err := s.retry(isFull, func() error {
		if s.f == nil {
			if err := s.openSegmentLocked(); err != nil {
				s.walErrs.Add(1)
				return err
			}
		}
		n, err := s.f.Write(s.group[off:])
		g, from := s.active(), off
		for ; i < len(s.gframes) && s.gframes[i].end <= from+n; i++ {
			g.note(s.gframes[i].sw, s.gframes[i].col)
			off = s.gframes[i].end
			s.appends.Inc()
		}
		g.size += int64(off - from)
		s.walBytes.Add(int64(off - from))
		if err == nil && off == len(s.group) {
			return nil
		}
		if err == nil {
			err = io.ErrShortWrite
		}
		s.walErrs.Add(1)
		s.sealLocked()
		return err
	})
	s.group, s.gframes = s.group[:0], s.gframes[:0]
	if err != nil {
		return fmt.Errorf("durable: wal append: %w", err)
	}
	if s.active().size >= s.segBytes {
		s.sealLocked()
	}
	return nil
}

// groupEnd is the size the active segment will have once the group lands:
// a segment opened for it starts with a header.
func (s *Store) groupEnd() int64 {
	if s.f == nil {
		return int64(wire.SegmentHeaderSize + len(s.group))
	}
	return s.active().size + int64(len(s.group))
}

// Append issues rec the next LSN and logs it under the store's term,
// setting rec.LSN and rec.Term. rec is not retained. A record batch
// (wire.WALAFRBatch) collects in the write group; every other frame is
// written at once (appendLocked). Its records are logged without their
// sub-window and app: replay gives each rec.SubWindow and app 0, since a
// durable deployment runs one app.
func (s *Store) Append(rec *wire.WALRecord) error {
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return s.deadErr
	}
	if s.writerTerm != s.curTerm {
		s.fenced.Add(1)
		return ErrFenced
	}
	if _, err := s.appendLocked(rec); err != nil {
		return err
	}
	s.walLat.Observe(time.Since(start))
	return nil
}

// appendLocked is append under mu, which the checkpoint's column records
// share; it returns the frame's size. The LSN is issued under mu, so
// frames land in LSN order. Record batches collect in the write group
// (flushLocked), which lands once it reaches groupBytes or fills the
// segment to its cap: the segment seals after the frame that took it
// there, however the frames before it were grouped. Every other frame
// (trigger, finish, shed, spike, column) is written on its own, the group
// before it: a control frame reaches disk in the order it was logged.
// The "wal-append" crash point tears the frame being appended and loses
// the group, whose frames a dead process never wrote.
func (s *Store) appendLocked(rec *wire.WALRecord) (int, error) {
	control := rec.Type != wire.WALAFRBatch
	if control {
		if err := s.flushLocked(); err != nil {
			return 0, err
		}
	}
	rec.LSN, rec.Term = s.lsn.Add(1), s.writerTerm
	from := len(s.group)
	s.group = wire.AppendWALRecord(s.group, rec)
	n := len(s.group) - from
	if s.crash != nil && s.crash("wal-append") {
		frame := s.group[from:]
		if s.f == nil {
			s.openSegmentLocked() // best effort, so the tear lands somewhere
		}
		return 0, s.die(s.f, frame, "wal-append")
	}
	s.gframes = append(s.gframes, groupFrame{end: len(s.group), sw: rec.SubWindow, col: rec.Type == wire.WALColumn})
	if control || len(s.group) >= groupBytes || s.groupEnd() >= s.segBytes {
		return n, s.flushLocked()
	}
	return n, nil
}

// Flush writes the write group: the batches logged since the last write
// reach the operating system. The deployment flushes before the switch
// forgets what the group holds (its region reset) and after the drain.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return s.deadErr
	}
	return s.flushLocked()
}

// SealBoundary writes the group and seals the active segment at a
// sub-window boundary, as every checkpoint does: the next append opens a
// fresh generation. A failed write counts in WALErrors.
func (s *Store) SealBoundary() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushLocked()
	s.sealLocked()
}

// AppendBatch logs one ingested AFR batch of sub-window sw. The first
// argument is ignored: it once named the controller shard whose log the
// batch went to. retrans marks batches that arrived via the NACK/retransmit
// path, so replayed delivery accounting matches the original run's.
func (s *Store) AppendBatch(_ int, sw uint64, retrans bool, afrs []packet.AFR) error {
	return s.Append(&wire.WALRecord{Type: wire.WALAFRBatch, SubWindow: sw, Retrans: retrans, AFRs: afrs})
}

// AppendTrigger logs a sub-window's trigger announcement.
func (s *Store) AppendTrigger(sw uint64, keyCount uint32) error {
	return s.Append(&wire.WALRecord{Type: wire.WALTrigger, SubWindow: sw, KeyCount: keyCount})
}

// AppendFinish logs a FinishSubWindow call, so replay re-runs the window
// assembly (and its evictions) at exactly the same point in the ingest
// order.
func (s *Store) AppendFinish(sw uint64) error {
	return s.Append(&wire.WALRecord{Type: wire.WALFinish, SubWindow: sw})
}

// quarantineLocked sets a damaged file aside and drops it from the live
// segment list. If it is the active segment, the handle closes first. A
// failed rename leaves the file in place — it will be re-detected (and
// re-quarantined) by the next pass.
func (s *Store) quarantineLocked(path string) {
	if gen, ok := parseGen(filepath.Base(path)); ok {
		s.setAside = append(s.setAside, gen)
	}
	if s.f != nil && path == s.path {
		s.f.Close()
		s.f = nil
	}
	s.segs = slices.DeleteFunc(s.segs, func(g segment) bool { return g.path == path })
	s.quarantines.Add(1)
	s.rename(path, path+quarantineSuffix)
}

// replaySegmentLocked decodes every trustworthy frame of segment g and
// records its size and sub-windows. keep=false means the file was
// discarded (quarantined, or an empty creation artifact) and must leave
// the live list. A torn tail — in any segment, since retry rotation seals
// tears mid-log — ends the replay at the last good frame and is not
// damage; an undecodable header, a CRC-failed frame, or an unreadable file
// is.
func (s *Store) replaySegmentLocked(g *segment) (recs []*wire.WALRecord, keep bool) {
	buf, err := s.readFile(g.path, nil)
	if err != nil {
		if isMissing(err) {
			return nil, false
		}
		s.quarantineLocked(g.path)
		return nil, false
	}
	hdr, err := wire.DecodeSegmentHeader(buf)
	if err != nil {
		if errors.Is(err, wire.ErrTruncated) {
			// Crash during segment creation: the header never completed,
			// so the file cannot contain frames. Discard it.
			s.remove(g.path)
			return nil, false
		}
		s.quarantineLocked(g.path)
		return nil, false
	}
	if hdr.Term > s.segTermHigh {
		s.segTermHigh = hdr.Term
	}
	g.sws, g.cols = nil, nil
	off := wire.SegmentHeaderSize
	for off < len(buf) {
		rec, n, err := wire.DecodeWALRecord(buf[off:])
		if err != nil {
			if errors.Is(err, wire.ErrChecksum) {
				// Definite corruption. Nothing in this file can be
				// trusted (the rot may not be where the CRC caught it),
				// so its frames are dropped wholesale; the LSNs that
				// vanish with it surface as LostLSNRange gaps.
				s.quarantineLocked(g.path)
				return nil, false
			}
			break // torn tail: keep the prefix
		}
		recs = append(recs, rec)
		g.note(rec.SubWindow, rec.Type == wire.WALColumn)
		off += n
	}
	g.size = int64(off)
	return recs, true
}

// recoverLocked replays every live segment in generation order, which is
// LSN order, quarantining damage, and rebuilds the store's view: LSN
// high-water mark, live segment list, and the LostLSNRange gaps. Returns
// the checkpoint (nil if none survives) with its live columns gathered
// from the frames it covers (fold), and the frames it does not cover but
// column records, debris of a checkpoint that did not commit, which the
// next one re-logs. Any damage makes the next checkpoint re-log every live
// column.
func (s *Store) recoverLocked() (*wire.Snapshot, []*wire.WALRecord) {
	s.lost = s.lost[:0]
	quarantined := s.quarantines.Load()
	snap := s.loadCheckpointLocked()
	through := uint64(0)
	f := fold{}
	if snap != nil {
		through = snap.ThroughLSN
		for _, sw := range snap.Live {
			f[sw] = &foldCol{}
		}
	}
	high := through
	var recs []*wire.WALRecord
	live := slices.Clone(s.segs)
	s.segs = s.segs[:0]
	for _, g := range live {
		seg, keep := s.replaySegmentLocked(&g)
		if !keep {
			continue
		}
		s.segs = append(s.segs, g)
		for _, r := range seg {
			high = max(high, r.LSN)
			switch {
			case r.LSN <= through:
				f.add(g.gen, r)
			case r.Type == wire.WALColumn:
				s.damageLocked(r.SubWindow)
			default:
				recs = append(recs, r)
			}
		}
	}
	if high > s.lsn.Load() {
		s.lsn.Store(high)
	}
	if snap != nil {
		f.apply(s, snap)
	}
	s.noteGapsLocked(snap, recs)
	if len(s.lost) > 0 || s.quarantines.Load() > quarantined {
		s.damageLocked(0)
	}
	return snap, recs
}

// noteGapsLocked reports the LSN holes in the frames past the checkpoint:
// the quarantined frames. The sub-window bounds come from the nearest
// recovered neighbors (or the checkpoint's finish horizon for a leading
// gap).
func (s *Store) noteGapsLocked(snap *wire.Snapshot, recs []*wire.WALRecord) {
	expect, prevSW := uint64(1), uint64(0)
	if snap != nil {
		expect = snap.ThroughLSN + 1
		if snap.HasFinished {
			prevSW = snap.LastFinished
		}
	}
	for _, r := range recs {
		if r.LSN > expect {
			lo, hi := prevSW, r.SubWindow
			if hi < lo {
				lo, hi = hi, lo
			}
			s.lost = append(s.lost, LostLSNRange{From: expect, To: r.LSN - 1, SWLow: lo, SWHigh: hi})
		}
		expect = r.LSN + 1
		prevSW = r.SubWindow
	}
}

// Recover loads the latest checkpoint (nil when none survives) with its
// live columns as the records the log holds for them, plus the WAL frames
// it does not cover, in LSN order. It writes the group first, and reads
// what the disk holds even if that write fails. Damaged files are
// quarantined rather than failing the recovery; the LSNs and columns they
// took with them are reported by Lost.
func (s *Store) Recover() (*wire.Snapshot, []*wire.WALRecord, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return nil, nil, s.deadErr
	}
	s.flushLocked()
	snap, recs := s.recoverLocked()
	return snap, recs, nil
}

// framesIntact reports whether the first size bytes of a segment are its
// header followed by whole frames that each pass VerifyWALFrame.
func framesIntact(buf []byte, size int64) bool {
	if _, err := wire.DecodeSegmentHeader(buf); err != nil || int64(len(buf)) < size {
		return false
	}
	for off := int64(wire.SegmentHeaderSize); off < size; {
		n, err := wire.VerifyWALFrame(buf[off:size])
		if err != nil {
			return false
		}
		off += int64(n)
	}
	return true
}
