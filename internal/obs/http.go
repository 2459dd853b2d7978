package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"time"
)

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4): counters, gauges, scrape-time func
// metrics, and histograms with cumulative le-buckets. Families (the name
// before any embedded label set) are emitted alphabetically, each under
// one HELP/TYPE header, so instances of one metric that differ only in
// their labels read as one family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	type sample struct {
		name string
		typ  string
		help string
		val  float64
		hist *Histogram
	}
	samples := make(map[string]sample, len(r.byName))
	names := make([]string, 0, len(r.byName))
	for _, c := range r.counters {
		samples[c.name] = sample{name: c.name, typ: "counter", help: c.help, val: float64(c.Value())}
		names = append(names, c.name)
	}
	for _, g := range r.gauges {
		samples[g.name] = sample{name: g.name, typ: "gauge", help: g.help, val: float64(g.Value())}
		names = append(names, g.name)
	}
	funcs := make([]funcMetric, len(r.funcs))
	for i, f := range r.funcs {
		funcs[i] = *f
	}
	for _, h := range r.hists {
		samples[h.name] = sample{name: h.name, typ: "histogram", help: h.help, hist: h}
		names = append(names, h.name)
	}
	r.mu.Unlock()
	// Func metrics are evaluated outside the registry lock: their
	// callbacks reach into live pipeline state (queue depths, table
	// sizes) and must be free to take other locks.
	for _, f := range funcs {
		samples[f.name] = sample{name: f.name, typ: f.typ, help: f.help, val: float64(f.base + f.collect())}
		names = append(names, f.name)
	}

	sortedByFamily(names)
	bw := bufio.NewWriter(w)
	lastFam := ""
	for _, name := range names {
		s := samples[name]
		fam, labels := family(name)
		if fam != lastFam {
			fmt.Fprintf(bw, "# HELP %s %s\n", fam, s.help)
			fmt.Fprintf(bw, "# TYPE %s %s\n", fam, s.typ)
			lastFam = fam
		}
		if s.hist == nil {
			fmt.Fprintf(bw, "%s %s\n", name, formatFloat(s.val))
			continue
		}
		writeHistogram(bw, fam, labels, s.hist)
	}
	return bw.Flush()
}

// writeHistogram emits one histogram's cumulative buckets, sum and count.
func writeHistogram(w io.Writer, fam, labels string, h *Histogram) {
	var cum int64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", fam, labelPrefix(labels), formatFloat(bound), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", fam, labelPrefix(labels), cum)
	set := ""
	if labels != "" {
		set = "{" + labels + "}"
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", fam, set, formatFloat(h.Sum().Seconds()))
	fmt.Fprintf(w, "%s_count%s %d\n", fam, set, h.Count())
}

func labelPrefix(labels string) string {
	if labels == "" {
		return ""
	}
	return labels + ","
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler serves the observability endpoint over the registry:
//
//	/metrics        Prometheus text format
//	/debug/windows  JSON dump of the window-lifecycle trace ring
//	/debug/pprof/   the standard net/http/pprof profiles
//
// pprof handlers are mounted explicitly on the returned mux — nothing is
// registered on http.DefaultServeMux, so embedding programs keep control
// of their global handler space.
func Handler(r *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/windows", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		events := r.Ring(0).Snapshot()
		if n, err := strconv.Atoi(req.URL.Query().Get("last")); err == nil && n > 0 && n < len(events) {
			events = events[len(events)-n:]
		}
		_ = json.NewEncoder(w).Encode(struct {
			Total  uint64  `json:"total_events"`
			Events []Event `json:"events"`
		}{Total: r.Ring(0).Total(), Events: events})
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running observability endpoint.
type Server struct {
	ln   net.Listener
	srv  *http.Server
	once sync.Once
	done chan struct{}
}

// Serve starts the observability endpoint on addr (":0" picks a free
// port; read the result's Addr). It returns once the listener is bound,
// serving in a background goroutine.
func Serve(addr string, r *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: %w", err)
	}
	s := &Server{
		ln:   ln,
		srv:  &http.Server{Handler: Handler(r), ReadHeaderTimeout: 5 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// Addr returns the bound address (host:port).
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// URL returns the endpoint's base URL.
func (s *Server) URL() string {
	if s == nil {
		return ""
	}
	host := s.Addr()
	if strings.HasPrefix(host, "[::]") {
		host = "127.0.0.1" + strings.TrimPrefix(host, "[::]")
	}
	return "http://" + host
}

// Close stops the server and waits for the serve goroutine to exit. Safe
// to call more than once; a nil *Server is a no-op.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	var err error
	s.once.Do(func() {
		err = s.srv.Close()
		<-s.done
	})
	return err
}
