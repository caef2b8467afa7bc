package main

// The program under test and the load against it: upsimd's handler stack
// behind a loopback listener, a keep-alive client bounded to two
// connections, the answer check, the closed and open loops, and /metrics
// scraping.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"upsim/internal/obs"
	"upsim/internal/server"
)

// clients bounds the load: two goroutines over at most two keep-alive
// connections.
const clients = 2

// requestTimeout is the client-side deadline of every request; a timeout
// counts as a failure and the run goes on.
const requestTimeout = 10 * time.Second

// newHandler assembles upsimd's handler stack with its default flags:
// default cache, warm-lane and batch sizes, prewarm on, one log line per
// request at info level (written to io.Discard, so the formatting cost
// stays and the terminal stays quiet).
func newHandler() http.Handler {
	obs.SetLogger(slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo})))
	mux := http.NewServeMux()
	mux.Handle("/", server.LoggingMiddleware(server.NewWithConfig(server.Config{Prewarm: true})))
	return mux
}

// target is one handler served on a loopback listener.
type target struct {
	srv  *http.Server
	base string
	errc chan error
}

// startTarget serves h with upsimd's server timeouts on 127.0.0.1:0.
func startTarget(h http.Handler) (*target, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	t := &target{
		srv: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       30 * time.Second,
			WriteTimeout:      60 * time.Second,
		},
		base: "http://" + ln.Addr().String(),
		errc: make(chan error, 1),
	}
	go func() { t.errc <- t.srv.Serve(ln) }()
	return t, nil
}

// stop drains the server and waits for Serve to return.
func (t *target) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := t.srv.Shutdown(ctx)
	if err != nil {
		_ = t.srv.Close()
	}
	if serr := <-t.errc; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		return serr
	}
	return err
}

// client sends requests over at most two keep-alive connections.
type client struct {
	hc   *http.Client
	tr   *http.Transport
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{
		MaxIdleConns:        clients,
		MaxIdleConnsPerHost: clients,
		MaxConnsPerHost:     clients,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{hc: &http.Client{Transport: tr}, tr: tr, base: base}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// do sends one request under the client deadline; status 0 means it
// failed before an answer (timeout, transport error).
func (c *client) do(method, target string, body []byte) (int, []byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+target, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, out, nil
}

// invalidatedKeys is the one cache-state-dependent member of a what-if
// apply answer; the reference (no cache) always reads 0.
var invalidatedKeys = regexp.MustCompile(`"invalidatedKeys":[0-9]+`)

// normalize strips the members of an answer that depend on the server's
// cache state rather than on the request: the batch cache snapshot and the
// what-if eviction count.
func normalize(route string, body []byte) []byte {
	switch route {
	case routeBatch:
		if i := bytes.LastIndex(body, []byte(`,"cache":`)); i >= 0 {
			return body[:i]
		}
	case routeWhatIf:
		return invalidatedKeys.ReplaceAll(body, []byte(`"invalidatedKeys":0`))
	}
	return body
}

// checker holds the reference answer of every logical request.
type checker struct {
	w    *workload
	refs [][]byte // normalized expected bodies
}

func (c *checker) ok(logical, status int, body []byte) bool {
	if status != http.StatusOK {
		return false
	}
	return bytes.Equal(normalize(c.w.logicals[logical].route, body), c.refs[logical])
}

// tally counts what one phase sent and saw.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	timeouts  int
	mismatch  int
	byStatus  map[string]int // "METHOD route status" → count
	firstErr  string
}

func newTally() *tally { return &tally{byStatus: map[string]int{}} }

func (t *tally) record(l *logical, status int, good bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if status != 0 {
		t.byStatus[fmt.Sprintf("%s %s %d", l.method, l.route, status)]++
	}
	if good {
		return
	}
	t.failed++
	switch {
	case status == 0:
		t.timeouts++
	case status == http.StatusOK:
		t.mismatch++
	}
	if t.firstErr == "" {
		if err != nil {
			t.firstErr = fmt.Sprintf("%s %s: %v", l.method, l.target, err)
		} else {
			t.firstErr = fmt.Sprintf("%s %s: status %d, answer differs from the reference", l.method, l.target, status)
		}
	}
}

func (t *tally) add(o *tally) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted += o.attempted
	t.failed += o.failed
	t.timeouts += o.timeouts
	t.mismatch += o.mismatch
	for k, v := range o.byStatus {
		t.byStatus[k] += v
	}
	if t.firstErr == "" {
		t.firstErr = o.firstErr
	}
}

// send issues encoding e and checks the answer.
func send(c *client, chk *checker, e *encoding, t *tally) bool {
	l := &chk.w.logicals[e.logical]
	status, body, err := c.do(l.method, l.target, e.body)
	good := err == nil && chk.ok(e.logical, status, body)
	t.record(l, status, good, err)
	return good
}

// warmUp sends every logical request once, by one client, in table order.
func warmUp(c *client, chk *checker, t *tally) {
	for i := range chk.w.logicals {
		send(c, chk, &chk.w.encs[i], t)
	}
}

// closedLoop runs two clients back to back for d and returns the
// throughput (successes per second) of each complete window of the stream
// (stream.window draws). A window runs from the answer that closed the
// previous one to the last answer of its own draws, so each window's rate
// rests on the same mix; the reported throughput is their median, so a
// passing stall of the shared machine moves one window, not the figure.
// When no window completes, the one rate is that of the whole loop.
func closedLoop(c *client, chk *checker, s *stream, d time.Duration, t *tally) []float64 {
	type answer struct {
		seq int
		at  time.Duration
		ok  bool
	}
	start := time.Now()
	var wg sync.WaitGroup
	got := make([][]answer, clients)
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for time.Since(start) < d {
				seq, e := s.take()
				ok := send(c, chk, &chk.w.encs[e], t)
				got[k] = append(got[k], answer{seq, time.Since(start), ok})
			}
		}(k)
	}
	wg.Wait()
	elapsed := time.Since(start)
	n, okAll := 0, 0
	for _, g := range got {
		n += len(g)
		for _, a := range g {
			if a.ok {
				okAll++
			}
		}
	}
	size := s.window()
	ends := make([]time.Duration, n/size)
	okN := make([]int, len(ends))
	for _, g := range got {
		for _, a := range g {
			if i := a.seq / size; i < len(ends) {
				ends[i] = max(ends[i], a.at)
				if a.ok {
					okN[i]++
				}
			}
		}
	}
	var rates []float64
	var prev time.Duration
	for i, end := range ends {
		if end > prev {
			rates = append(rates, float64(okN[i])/(end-prev).Seconds())
			prev = end
		}
	}
	if len(rates) == 0 {
		rates = append(rates, float64(okAll)/elapsed.Seconds())
	}
	return rates
}

// openResult is what an open-loop phase measured.
type openResult struct {
	latency []time.Duration // from scheduled send to answer
	late    []time.Duration // from scheduled send to actual send
}

// openLoop sends requests on a seeded Poisson schedule at rate per second
// for d, with two clients; each request is timed from its scheduled send
// time, so a stall also delays (and is charged to) the requests behind it.
func openLoop(c *client, chk *checker, s *stream, rate float64, d time.Duration, arrivals *rand.Rand, t *tally) openResult {
	var sched []time.Duration
	for at := 0.0; at < d.Seconds(); at += arrivals.ExpFloat64() / rate {
		sched = append(sched, time.Duration(at*float64(time.Second)))
	}
	res := openResult{latency: make([]time.Duration, len(sched)), late: make([]time.Duration, len(sched))}
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				due := start.Add(sched[i])
				sleepUntil(due)
				res.late[i] = time.Since(due)
				send(c, chk, &chk.w.encs[s.next()], t)
				res.latency[i] = time.Since(due)
			}
		}()
	}
	wg.Wait()
	return res
}

// scrape reads the upsim counters from GET /metrics.
func scrape(get func() ([]byte, error)) (counters, error) {
	b, err := get()
	if err != nil {
		return nil, err
	}
	return parseMetrics(b), nil
}

// counters maps a series ("name{labels}") to its value.
type counters map[string]float64

var scrapedFamilies = []string{
	"upsim_http_requests_total", "upsim_http_in_flight", "upsim_cache_", "upsim_genpool_",
	"upsim_server_warm_hits_total", "upsim_server_response_encodes_total",
}

func parseMetrics(b []byte) counters {
	out := counters{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		wanted := false
		for _, f := range scrapedFamilies {
			if strings.HasPrefix(line, f) {
				wanted = true
				break
			}
		}
		if !wanted {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// delta is after − before for every series.
func delta(before, after counters) counters {
	out := counters{}
	for k, v := range after {
		if d := v - before[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

// sum adds the series of one family (all label sets).
func (c counters) sum(family string) float64 {
	total := 0.0
	for k, v := range c {
		if k == family || strings.HasPrefix(k, family+"{") {
			total += v
		}
	}
	return total
}

// label returns the series of family with the given label value.
func (c counters) label(family, key, value string) float64 {
	total := 0.0
	for k, v := range c {
		if strings.HasPrefix(k, family+"{") && strings.Contains(k, key+`="`+value+`"`) {
			total += v
		}
	}
	return total
}

var requestSeries = regexp.MustCompile(`^upsim_http_requests_total\{method="([^"]*)",path="([^"]*)",status="([^"]*)"\}$`)

// reconcile checks that the request counter moved by exactly what the
// benchmark sent and saw, route by route and status by status.
func reconcile(d counters, t *tally) error {
	seen := map[string]int{}
	for k, v := range d {
		m := requestSeries.FindStringSubmatch(k)
		if m == nil {
			continue
		}
		seen[m[1]+" "+m[2]+" "+m[3]] = int(v)
	}
	var bad []string
	for k, v := range t.byStatus {
		if seen[k] != v {
			bad = append(bad, fmt.Sprintf("%s: sent %d, counted %d", k, v, seen[k]))
		}
	}
	for k, v := range seen {
		if _, ok := t.byStatus[k]; !ok {
			bad = append(bad, fmt.Sprintf("%s: sent 0, counted %d", k, v))
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("request counter does not reconcile: %s", strings.Join(bad, "; "))
	}
	return nil
}

// waitIdle polls until no request is in flight (a timed-out request may
// still be running server-side), so counter deltas are complete.
func waitIdle(get func() ([]byte, error)) (counters, error) {
	deadline := time.Now().Add(2 * requestTimeout)
	for {
		c, err := scrape(get)
		if err != nil {
			return nil, err
		}
		if c.sum("upsim_http_in_flight") == 0 || time.Now().After(deadline) {
			return c, nil
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (c *client) metrics() ([]byte, error) {
	status, b, err := c.do("GET", "/metrics", nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("GET /metrics: status %d", status)
	}
	return b, err
}

// Order statistics.

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func durQuantile(ds []time.Duration, q float64) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(quantile(xs, q))
}
