package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"gcs/internal/des"
	"gcs/internal/jobd"
	"gcs/internal/sim"
	"gcs/internal/store"
)

// Shape of the sweep_service workload: a stream spec has four cells per
// node count, and a stream is a sequence of spec pairs whose second
// spec adds one node count to the first, so one cell in three of a
// finished pair is already stored when it is submitted.
var (
	streamTopos   = []string{"ring", "grid"}
	streamDrivers = []string{"randomwalk"}
	streamChurns  = []string{"none", "volatile"}
)

const (
	streamHorizon = 5
	// serviceStarts is how many cold service start-ups setup_s is the
	// median of; the last one serves the workload.
	serviceStarts = 21
	// preloadSpecs x preloadNs x 8 cells are stored before set-up, so
	// that the store replay and Resume have work to do.
	preloadSpecs = 8
	preloadNs    = 4
	// pollEvery is the clients' GET /jobs/{id} period: fine enough for
	// jobs of a few tens of milliseconds, coarse enough that serving
	// the polls costs well under 1% of the host (jobd.poll_share and
	// README.md give the measurement).
	pollEvery = 10 * time.Millisecond
	// memPairs is how many spec pairs each client finishes before
	// mem_mb is read, with every client waiting and no job in flight.
	memPairs = 16
)

// timedRepo decorates the daemon's repository with cell put/get
// timings and the store hit count.
type timedRepo struct {
	store.Repository
	mu         sync.Mutex
	puts, gets []time.Duration
	hits       int
}

func (r *timedRepo) PutCell(c store.CellResult) error {
	start := time.Now()
	err := r.Repository.PutCell(c)
	el := time.Since(start)
	r.mu.Lock()
	r.puts = append(r.puts, el)
	r.mu.Unlock()
	return err
}

func (r *timedRepo) GetCell(k store.Key) (store.CellResult, bool) {
	start := time.Now()
	c, ok := r.Repository.GetCell(k)
	el := time.Since(start)
	r.mu.Lock()
	r.gets = append(r.gets, el)
	if ok {
		r.hits++
	}
	r.mu.Unlock()
	return c, ok
}

func (r *timedRepo) reset() {
	r.mu.Lock()
	r.puts, r.gets, r.hits = nil, nil, 0
	r.mu.Unlock()
}

// cellTimer is the daemon's RunCell: Arena.RunSliced, timed. When
// traced, each worker's arena gets its own tracer, installed on the
// arena's serial engine before its first cell.
type cellTimer struct {
	mu      sync.Mutex
	runs    []time.Duration
	tracers map[*sim.Arena]*tracer // nil when untraced
}

func (c *cellTimer) run(a *sim.Arena, cfg sim.Config, slice float64, cont func() bool) (sim.SkewReport, bool) {
	tr := c.tracerFor(a, cfg)
	if tr != nil {
		tr.begin()
	}
	start := time.Now()
	rpt, ok := a.RunSliced(cfg, slice, cont)
	el := time.Since(start)
	if tr != nil {
		tr.end()
	}
	c.mu.Lock()
	c.runs = append(c.runs, el)
	c.mu.Unlock()
	return rpt, ok
}

func (c *cellTimer) tracerFor(a *sim.Arena, cfg sim.Config) *tracer {
	if c.tracers == nil || cfg.Parallel {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	tr := c.tracers[a]
	if tr == nil {
		tr = newTracer()
		setHooks(a, cfg, tr)
		c.tracers[a] = tr
	}
	return tr
}

func (c *cellTimer) times() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.runs...)
}

// tracer merges the tracers of every worker.
func (c *cellTimer) tracer() *tracer {
	c.mu.Lock()
	defer c.mu.Unlock()
	all := newTracer()
	for _, tr := range c.tracers {
		all.merge(tr)
	}
	return all
}

// pollTimer wraps the daemon's handler and sums the time it spends
// serving status polls (GET /jobs/{id}), the CPU the clients' polling
// costs the service.
type pollTimer struct {
	h  http.Handler
	mu sync.Mutex
	t  time.Duration
}

func (p *pollTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet || !strings.HasPrefix(r.URL.Path, "/jobs/") || strings.HasSuffix(r.URL.Path, "/results") {
		p.h.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	p.h.ServeHTTP(w, r)
	el := time.Since(start)
	p.mu.Lock()
	p.t += el
	p.mu.Unlock()
}

func (p *pollTimer) busy() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.t
}

// service is one daemon over a WAL, served over loopback HTTP and wired
// as cmd/gcsimd wires it.
type service struct {
	wal    *store.WAL
	repo   *timedRepo // nil when untraced
	polls  *pollTimer // nil when untraced
	cells  *cellTimer
	d      *jobd.Daemon
	srv    *http.Server
	served chan error
	url    string
}

// startService opens the store in dir, starts the daemon, resumes the
// stored jobs and serves until the health check answers. It returns
// the host time of the whole start-up and of the store open alone.
func startService(dir string, traced bool) (s *service, setup, open time.Duration, err error) {
	start := time.Now()
	wal, err := store.OpenWAL(dir, store.WALOptions{SegmentBytes: 4 << 20})
	if err != nil {
		return nil, 0, 0, err
	}
	open = time.Since(start)
	s = &service{wal: wal, cells: &cellTimer{}, served: make(chan error, 1)}
	var repo store.Repository = wal
	if traced {
		s.repo = &timedRepo{Repository: wal}
		repo = s.repo
		s.cells.tracers = map[*sim.Arena]*tracer{}
	}
	s.d, err = jobd.New(jobd.Config{
		Repo:        repo,
		QueueCap:    4096,
		CellTimeout: 10 * time.Minute,
		MaxRetries:  2,
		BackoffSeed: 1,
		RunCell:     s.cells.run,
	})
	if err != nil {
		wal.Close()
		return nil, 0, 0, err
	}
	if err := s.d.Resume(); err != nil {
		s.stop()
		return nil, 0, 0, fmt.Errorf("resume: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.stop()
		return nil, 0, 0, err
	}
	s.url = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: s.d.Handler()}
	if traced {
		s.polls = &pollTimer{h: s.srv.Handler}
		s.srv.Handler = s.polls
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	resp, err := http.Get(s.url + "/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		s.stop()
		return nil, 0, 0, err
	}
	return s, time.Since(start), open, nil
}

// stop drains the daemon, shuts the server down and closes the store.
func (s *service) stop() error {
	errs := []error{s.d.Drain(10 * time.Second)}
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		errs = append(errs, s.srv.Shutdown(ctx))
		if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	errs = append(errs, s.wal.Close())
	return errors.Join(errs...)
}

// preload fills dir with a store of preloadSpecs finished jobs of tiny
// cells, then reopens it once so that it is compacted as a long-lived
// daemon's store would be.
func preload(dir string) error {
	wal, err := store.OpenWAL(dir, store.WALOptions{})
	if err != nil {
		return err
	}
	d, err := jobd.New(jobd.Config{Repo: wal})
	if err != nil {
		wal.Close()
		return err
	}
	var subErr error
	for i := 0; i < preloadSpecs; i++ {
		spec := jobd.SweepSpec{
			Topos: []string{"ring", "grid"}, Drivers: []string{"constant", "randomwalk"},
			Churns: []string{"none", "volatile"}, Seed: uint64(1000 + i), Horizon: 1,
		}
		for j := 0; j < preloadNs; j++ {
			spec.Ns = append(spec.Ns, 8+preloadNs*i+j)
		}
		view, _, err := d.Submit(spec)
		if err != nil {
			subErr = err
			break
		}
		done, _ := d.Done(view.ID)
		<-done
	}
	err = errors.Join(subErr, d.Drain(time.Minute), wal.Close())
	if err != nil {
		return err
	}
	wal, err = store.OpenWAL(dir, store.WALOptions{})
	if err != nil {
		return err
	}
	return wal.Close()
}

// jobRecord is one client job as the client saw it.
type jobRecord struct {
	latency, submit, results time.Duration
	cached                   int
	// cells are the spec's cells as the client expands them, reports
	// the digests of the reports the daemon returned for them.
	cells   []sim.SweepCell
	reports []string
	events  []uint64
	err     error
}

// client runs one closed-loop stream of spec pairs until deadline and
// for at least memPairs pairs, calling checkpoint after the memPairs-th;
// a pair started before the deadline is finished, so every client sees
// the same stored-cell share.
func client(hc *http.Client, url string, seed uint64, id int, deadline time.Time, checkpoint func()) []jobRecord {
	r := des.NewRand(seed).Fork(uint64(id) + 1)
	var out []jobRecord
	for pairs := 0; ; pairs++ {
		if pairs == memPairs {
			checkpoint()
		}
		if pairs >= memPairs && !time.Now().Before(deadline) {
			break
		}
		a := 64 + r.Intn(65)
		b := 64 + r.Intn(64)
		if b >= a {
			b++
		}
		spec := jobd.SweepSpec{
			Ns: []int{a}, Topos: streamTopos, Drivers: streamDrivers, Churns: streamChurns,
			Seed: r.Uint64(), Horizon: streamHorizon,
		}
		out = append(out, runJob(hc, url, spec))
		spec.Ns = []int{a, b}
		out = append(out, runJob(hc, url, spec))
	}
	return out
}

// runJob submits spec, polls until it is done and fetches its results.
func runJob(hc *http.Client, url string, spec jobd.SweepSpec) jobRecord {
	var j jobRecord
	cells, err := spec.Cells()
	if err != nil {
		j.err = err
		return j
	}
	j.cells = cells
	body, err := json.Marshal(spec)
	if err != nil {
		j.err = err
		return j
	}
	start := time.Now()
	var view jobd.JobView
	if j.err = call(hc, http.MethodPost, url+"/jobs", body, &view); j.err != nil {
		return j
	}
	j.submit = time.Since(start)
	j.cached = view.Cached
	for view.Status != store.StatusDone {
		time.Sleep(pollEvery)
		if j.err = call(hc, http.MethodGet, url+"/jobs/"+view.ID, nil, &view); j.err != nil {
			return j
		}
	}
	fetch := time.Now()
	var res struct {
		Status store.JobStatus `json:"status"`
		Cells  []jobd.CellView `json:"cells"`
	}
	if j.err = call(hc, http.MethodGet, url+"/jobs/"+view.ID+"/results", nil, &res); j.err != nil {
		return j
	}
	j.results = time.Since(fetch)
	j.latency = time.Since(start)
	if res.Status != store.StatusDone || len(res.Cells) != len(cells) {
		j.err = fmt.Errorf("job %s: status %s with %d of %d cells", view.ID, res.Status, len(res.Cells), len(cells))
		return j
	}
	for i, c := range res.Cells {
		if !c.Done || c.Result == nil || c.Result.Err != "" || c.Name != cells[i].Name {
			j.err = fmt.Errorf("job %s: cell %d (%s) came back unfinished or failed", view.ID, i, cells[i].Name)
			return j
		}
		j.reports = append(j.reports, digest(c.Result.Report))
		j.events = append(j.events, c.Result.Report.EventsExecuted)
	}
	return j
}

// statusError is a non-2xx response.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.msg) }

// call sends one request and decodes a 2xx JSON response into out.
func call(hc *http.Client, method, url string, body []byte, out any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return &statusError{code: resp.StatusCode, msg: string(bytes.TrimSpace(data))}
	}
	return json.Unmarshal(data, out)
}

// sweepPass is what one service pass measured.
type sweepPass struct {
	setup, open []float64
	wall        time.Duration
	jobs        []jobRecord
	cellRuns    []time.Duration
	cellTrace   *tracer
	mem         float64
	workers     int
	polls       *pollTimer
	repo        *timedRepo
}

// runSweepPass preloads a store, starts the service serviceStarts times
// from copies of it, and drives the last start-up with nproc clients
// for budget.
func runSweepPass(root string, seed uint64, budget time.Duration, traced bool) (*sweepPass, error) {
	if err := os.Mkdir(root, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(root, "preload")
	if err := preload(base); err != nil {
		return nil, fmt.Errorf("preload: %w", err)
	}
	p := &sweepPass{workers: runtime.GOMAXPROCS(0)}
	var s *service
	for i := 0; i < serviceStarts; i++ {
		dir := filepath.Join(root, fmt.Sprintf("store-%d", i))
		if err := os.CopyFS(dir, os.DirFS(base)); err != nil {
			return nil, err
		}
		runtime.GC()
		var setup, open time.Duration
		var err error
		s, setup, open, err = startService(dir, traced)
		if err != nil {
			return nil, err
		}
		p.setup = append(p.setup, setup.Seconds())
		p.open = append(p.open, open.Seconds())
		if i < serviceStarts-1 {
			if err := s.stop(); err != nil {
				return nil, err
			}
		}
	}
	if s.repo != nil {
		s.repo.reset()
	}
	p.repo = s.repo
	p.polls = s.polls

	clients := runtime.NumCPU()
	hc := &http.Client{
		Timeout:   time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: clients},
	}
	// mem_mb is read once every client has finished memPairs pairs: a
	// fixed amount of work, so the reading does not follow throughput as
	// the store's index, which grows with every cell served, would at
	// the end.
	var arrived sync.WaitGroup
	arrived.Add(clients)
	release := make(chan struct{})
	checkpoint := func() {
		arrived.Done()
		<-release
	}
	go func() {
		arrived.Wait()
		p.mem = memMB()
		close(release)
	}()
	start := time.Now()
	deadline := start.Add(budget)
	streams := make([][]jobRecord, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			streams[c] = client(hc, s.url, seed, c, deadline, checkpoint)
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	hc.CloseIdleConnections()
	p.cellRuns = s.cells.times()
	p.cellTrace = s.cells.tracer()
	for _, st := range streams {
		p.jobs = append(p.jobs, st...)
	}
	return p, s.stop()
}

// verify checks every returned report against sim.Run on the cell's
// config, running each distinct cell once on nproc goroutines, and
// counts each job as one checked operation.
func verify(jobs []jobRecord, t *tally) error {
	want := map[store.Key]string{}
	var todo []sim.Config
	for _, j := range jobs {
		for _, c := range j.cells {
			k := store.KeyOf(c.Cfg)
			if _, ok := want[k]; !ok {
				want[k] = ""
				todo = append(todo, c.Cfg)
			}
		}
	}
	var mu sync.Mutex
	var runErr error
	var next int
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(todo) {
					return
				}
				rpt, err := sim.Run(todo[i])
				mu.Lock()
				if err != nil && runErr == nil {
					runErr = err
				}
				want[store.KeyOf(todo[i])] = digest(rpt)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if runErr != nil {
		return runErr
	}
	for _, j := range jobs {
		err := j.err
		for i := 0; err == nil && i < len(j.reports); i++ {
			if j.reports[i] != want[store.KeyOf(j.cells[i].Cfg)] {
				err = fmt.Errorf("cell %s: returned report differs from sim.Run", j.cells[i].Name)
			}
		}
		t.check(err == nil, "job: %v", err)
	}
	return nil
}

func runSweep(o options, m metrics, t *tally) error {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	root, err := os.MkdirTemp(".bench_build", "sweep-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	if !o.trace {
		p, err := runSweepPass(filepath.Join(root, "untraced"), o.seed, o.budget, false)
		if err != nil {
			return err
		}
		if err := verify(p.jobs, t); err != nil {
			return err
		}
		var lat []float64
		cells, events := 0, uint64(0)
		seen := map[store.Key]bool{}
		for _, j := range p.jobs {
			lat = append(lat, j.latency.Seconds())
			cells += len(j.reports)
			for i := range j.reports {
				if k := store.KeyOf(j.cells[i].Cfg); !seen[k] {
					seen[k] = true
					events += j.events[i]
				}
			}
		}
		wall := p.wall.Seconds()
		fmt.Printf("samples %d jobs, %d cell runs\n", len(p.jobs), len(p.cellRuns))
		m.set("run_s", "s", percentile(seconds(p.cellRuns), 25))
		m.set("events_per_s", "1/s", float64(events)/wall)
		m.set("cells_per_s", "1/s", float64(cells)/wall)
		m.set("job_p50_s", "s", percentile(lat, 50))
		m.set("job_p90_s", "s", percentile(lat, 90))
		m.set("setup_s", "s", median(p.setup))
		m.set("mem_mb", "MB", p.mem)
		return nil
	}
	return traceSweep(root, o, m, t)
}

// traceSweep is the per-layer pass: half the budget untraced for the
// overhead baseline, half with the timing repository and cell tracers.
func traceSweep(root string, o options, m metrics, t *tally) error {
	base, err := runSweepPass(filepath.Join(root, "untraced"), o.seed, o.budget/2, false)
	if err != nil {
		return err
	}
	p, err := runSweepPass(filepath.Join(root, "traced"), o.seed, o.budget/2, true)
	if err != nil {
		return err
	}
	if err := verify(append(base.jobs, p.jobs...), t); err != nil {
		return err
	}
	ms := func(ds []time.Duration) []float64 {
		out := seconds(ds)
		for i := range out {
			out[i] *= 1e3
		}
		return out
	}
	var submit, results []float64
	cached, rejected := 0, 0
	for _, j := range p.jobs {
		var se *statusError
		if errors.As(j.err, &se) && se.code == http.StatusTooManyRequests {
			rejected++
		}
		if j.err == nil {
			submit = append(submit, j.submit.Seconds()*1e3)
			results = append(results, j.results.Seconds()*1e3)
		}
		cached += j.cached
	}
	runs := ms(p.cellRuns)
	puts := ms(p.repo.puts)
	gets := ms(p.repo.gets)
	m.set("trace_overhead_frac", "ratio", median(runs)/median(ms(base.cellRuns))-1)
	stream := sim.Config{Horizon: streamHorizon}.WithDefaults()
	labelMetrics(m, p.cellTrace, stream.MinDelay, stream.MaxDelay)
	m.set("store.put_cell_ms_p50", "ms", percentile(puts, 50))
	m.set("store.put_cell_ms_p99", "ms", percentile(puts, 99))
	if len(gets) > 0 {
		m.set("store.get_cell_us", "us", sum(gets)*1e3/float64(len(gets)))
		m.set("store.hit_ratio", "ratio", float64(p.repo.hits)/float64(len(gets)))
	}
	m.set("store.open_s", "s", median(p.open))
	m.set("jobd.cell_run_ms_p50", "ms", percentile(runs, 50))
	m.set("jobd.cell_run_ms_p90", "ms", percentile(runs, 90))
	m.set("jobd.cells_run", "count", float64(len(runs)))
	m.set("jobd.cells_cached", "count", float64(cached))
	m.set("jobd.sim_share", "ratio", sum(runs)/1e3/(float64(p.workers)*p.wall.Seconds()))
	m.set("jobd.submit_ms", "ms", median(submit))
	m.set("jobd.results_ms", "ms", median(results))
	m.set("jobd.rejected", "count", float64(rejected))
	m.set("jobd.poll_share", "ratio", p.polls.busy().Seconds()/(float64(p.workers)*p.wall.Seconds()))
	return nil
}
