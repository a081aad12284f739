package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"fingers"
	"fingers/internal/graph"
	"fingers/internal/journal"
	"fingers/internal/service"
	"fingers/internal/telemetry"
)

// serviceClients is the number of closed-loop clients, each on its own
// connection; serviceWorkers is fingersd's worker count. Both stay
// within nproc.
const (
	serviceClients = 2
	serviceWorkers = 2
)

var (
	jobGraphs   = []string{"As", "Mi"}
	jobPatterns = []string{"tc", "4cl", "wedge"}
	jobArchs    = []string{"fingers", "flexminer", "sisa"}
)

// serviceWorkload drives an in-process fingersd over HTTP.
type serviceWorkload struct {
	seed    int64
	minJobs int
	tmpDir  string

	reg   *service.Registry
	dir   string
	jn    *journal.Journal
	mgr   *service.Manager
	ts    *httptest.Server
	plans map[string][]*fingers.Plan
	refs  map[string]uint64 // graph/pattern → direct count

	// Traced loop: per-job layer timings (ms), scratch-journal append
	// times (ms), rejected submissions and retried jobs.
	submit, queueWait, runMS, deliver, stats []float64
	appendMS                                 []float64
	rejected, retried                        int
}

func (w *serviceWorkload) setup(sp *spanLog, parent int) error {
	w.reg = service.NewRegistry()
	for _, name := range jobGraphs {
		d, err := fingers.DatasetByName(name)
		if err != nil {
			return err
		}
		w.reg.Add(name, func() (*graph.Graph, error) { return buildGraph(sp, parent, d.Build), nil })
	}
	id := sp.begin("service.Preload", "service", parent)
	err := w.reg.Preload(jobGraphs...)
	sp.end(id)
	if err != nil {
		return err
	}
	w.plans = map[string][]*fingers.Plan{}
	for _, p := range jobPatterns {
		if w.plans[p], err = compile(sp, parent, p); err != nil {
			return err
		}
	}
	if err := os.MkdirAll(w.tmpDir, 0o755); err != nil {
		return err
	}
	if w.dir, err = os.MkdirTemp(w.tmpDir, "journal-"); err != nil {
		return err
	}
	id = sp.begin("journal.Open", "journal", parent)
	w.jn, err = journal.Open(w.dir, journal.Options{})
	sp.end(id)
	if err != nil {
		return err
	}
	meta := telemetry.HostMeta()
	meta.Source = "perfbench"
	id = sp.begin("service.NewManager", "service", parent)
	w.mgr = service.NewManager(w.reg, service.Config{Concurrency: serviceWorkers, Journal: w.jn, Meta: meta})
	w.ts = httptest.NewServer(service.NewServer(w.mgr, 0).Handler())
	sp.end(id)
	return nil
}

func (w *serviceWorkload) close() {
	if w.ts != nil {
		w.ts.Close()
		w.mgr.Drain(0)
		w.ts = nil
	}
	if w.jn != nil {
		_ = w.jn.Close() // the directory is removed next
		w.jn = nil
	}
	if w.dir != "" {
		_ = os.RemoveAll(w.dir) // best effort: scratch space only
		w.dir = ""
	}
	w.reg, w.mgr, w.plans = nil, nil, nil
}

func (w *serviceWorkload) reference() error {
	w.refs = map[string]uint64{}
	for _, g := range jobGraphs {
		ge, err := w.reg.Get(g)
		if err != nil {
			return err
		}
		for _, p := range jobPatterns {
			var n uint64
			for _, pl := range w.plans[p] {
				n += fingers.Count(ge.Graph, pl)
			}
			w.refs[g+"/"+p] = n
		}
	}
	return nil
}

func (w *serviceWorkload) measure(window time.Duration, sp *spanLog, root int, r *result) phase {
	var ph phase
	var mu sync.Mutex // guards ph and r
	var done int
	start := time.Now()
	more := func() bool {
		mu.Lock()
		defer mu.Unlock()
		el := time.Since(start)
		return el < window || done < w.minJobs && el < time.Minute
	}
	var wg sync.WaitGroup
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient(w.ts.URL, fmt.Sprintf("perfbench-%d", c), w.seed, c)
			defer cl.tr.CloseIdleConnections()
			for more() {
				j := cl.job(sp, root)
				mu.Lock()
				w.account(r, j, sp != nil)
				if j.ok {
					ph.units = append(ph.units, j.latency)
					ph.ops++
					done++
				}
				mu.Unlock()
				if j.retryAfter > 0 {
					time.Sleep(j.retryAfter)
				}
			}
		}()
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	if sp != nil {
		w.appendScratch(sp, root)
	}
	return ph
}

// jobOutcome is one client-side job: what it measured and whether the
// terminal record held the right count.
type jobOutcome struct {
	spec                    fingers.JobSpec
	ok, wrong, rejected     bool
	err                     string
	retryAfter              time.Duration
	latency, submit, status float64 // client side, ms
	queueWait, run, deliver float64 // server timestamps, ms
	attempt                 int
	count                   uint64
}

// account checks one job against its reference and keeps its timings.
func (w *serviceWorkload) account(r *result, j jobOutcome, traced bool) {
	key := j.spec.Graph + "/" + j.spec.Pattern
	switch {
	case j.err != "":
		r.check(false, j.wrong, "job %s/%s/%d: %s", key, j.spec.Arch, j.spec.PEs, j.err)
	case j.count != w.refs[key]:
		r.check(false, true, "job %s/%s/%d: count %d, direct count %d", key, j.spec.Arch, j.spec.PEs, j.count, w.refs[key])
	default:
		r.check(true, false, "")
	}
	if !traced {
		return
	}
	if j.rejected {
		w.rejected++
	}
	if !j.ok {
		return
	}
	if j.attempt > 1 {
		w.retried++
	}
	w.submit = append(w.submit, j.submit)
	w.queueWait = append(w.queueWait, j.queueWait)
	w.runMS = append(w.runMS, j.run)
	w.deliver = append(w.deliver, j.deliver)
	w.stats = append(w.stats, j.status)
}

// client is one closed-loop fingersd client on a single connection.
type client struct {
	base, id string
	rng      *rand.Rand
	queue    []fingers.JobSpec // rest of the current block
	tr       *http.Transport
	hc       *http.Client
}

func newClient(base, id string, seed int64, n int) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &client{
		base: base, id: id,
		rng: rand.New(rand.NewSource(seed*1000003 + int64(n))),
		tr:  tr, hc: &http.Client{Transport: tr},
	}
}

// nextSpec draws the client's next job from its seeded sequence: a
// fresh shuffle of every graph × pattern × architecture × PE-count
// combination per block, so every run serves the same job mix and only
// the order depends on the seed.
func (c *client) nextSpec() fingers.JobSpec {
	if len(c.queue) == 0 {
		for _, g := range jobGraphs {
			for _, p := range jobPatterns {
				for _, a := range jobArchs {
					for pes := 1; pes <= 4; pes++ {
						c.queue = append(c.queue, fingers.JobSpec{Arch: a, Graph: g, Pattern: p, PEs: pes})
					}
				}
			}
		}
		c.rng.Shuffle(len(c.queue), func(i, j int) { c.queue[i], c.queue[j] = c.queue[j], c.queue[i] })
	}
	spec := c.queue[0]
	c.queue = c.queue[1:]
	return spec
}

// job submits one job, follows its stream to the terminal record and
// reads its status.
func (c *client) job(sp *spanLog, root int) (j jobOutcome) {
	j.spec = c.nextSpec()
	body, err := json.Marshal(j.spec)
	if err != nil {
		j.err = err.Error()
		return j
	}
	jid := sp.begin("job", "bench", root)
	defer sp.end(jid)

	t0 := time.Now()
	sid := sp.begin("POST /v1/jobs", "service", jid)
	req, err := http.NewRequest(http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		sp.end(sid)
		j.err = err.Error()
		return j
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Client-ID", c.id)
	var st service.JobStatus
	code, hdr, err := c.do(req, &st)
	sp.end(sid)
	j.submit = ms(time.Since(t0))
	if err != nil {
		j.err = "submit: " + err.Error()
		return j
	}
	if code != http.StatusAccepted {
		j.err = fmt.Sprintf("submit: HTTP %d", code)
		j.rejected = code == http.StatusTooManyRequests || code >= 500
		if s, perr := strconv.Atoi(hdr.Get("Retry-After")); perr == nil {
			j.retryAfter = time.Duration(s) * time.Second
		}
		return j
	}

	sid = sp.begin("GET stream", "service", jid)
	last, tLast, err := c.stream(st.ID)
	sp.end(sid)
	if err != nil {
		j.err = "stream: " + err.Error()
		return j
	}
	j.latency = ms(tLast.Sub(t0))
	var rec telemetry.RunRecord
	if err := json.Unmarshal(last, &rec); err != nil {
		j.err = "terminal record: " + err.Error()
		return j
	}
	if rec.Partial || rec.JobState != "done" {
		j.err = fmt.Sprintf("terminal record: state %q partial %v", rec.JobState, rec.Partial)
		j.wrong = true
		return j
	}
	j.count = rec.Count

	t2 := time.Now()
	id := sp.begin("GET status", "service", jid)
	req, err = http.NewRequest(http.MethodGet, c.base+"/v1/jobs/"+st.ID, nil)
	if err == nil {
		_, _, err = c.do(req, &st)
	}
	sp.end(id)
	j.status = ms(time.Since(t2))
	if err != nil {
		j.err = "status: " + err.Error()
		return j
	}
	sub, e1 := time.Parse(time.RFC3339Nano, st.SubmittedAt)
	started, e2 := time.Parse(time.RFC3339Nano, st.StartedAt)
	fin, e3 := time.Parse(time.RFC3339Nano, st.FinishedAt)
	if e1 != nil || e2 != nil || e3 != nil {
		j.err = fmt.Sprintf("status timestamps %q %q %q", st.SubmittedAt, st.StartedAt, st.FinishedAt)
		return j
	}
	sp.add("queue", "service", sid, sub, started)
	sp.add("simulate", "sim", sid, started, fin)
	j.queueWait = ms(started.Sub(sub))
	j.run = ms(fin.Sub(started))
	j.deliver = ms(tLast.Sub(fin))
	j.attempt = st.Attempt
	j.ok = true
	return j
}

// do sends req and decodes a JSON body into v on success.
func (c *client) do(req *http.Request, v any) (int, http.Header, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, resp.Header, err
	}
	if resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(body, v); err != nil {
			return resp.StatusCode, resp.Header, err
		}
	}
	return resp.StatusCode, resp.Header, nil
}

// stream follows the job's NDJSON stream to its end and returns the
// terminal record with the time it arrived.
func (c *client) stream(id string) ([]byte, time.Time, error) {
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		return nil, time.Time{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, time.Time{}, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	var last []byte
	var at time.Time
	for {
		line, err := br.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			last, at = line, time.Now()
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, time.Time{}, err
		}
	}
	if last == nil {
		return nil, time.Time{}, fmt.Errorf("stream ended without a record")
	}
	return last, at, nil
}

// appendScratch times journal.Append, fsync included, on a scratch
// journal beside the run's, replaying the run's own records into it.
func (w *serviceWorkload) appendScratch(sp *spanLog, root int) {
	recs, _, err := journal.ReplayDir(w.dir)
	if err != nil || len(recs) == 0 {
		return
	}
	dir, err := os.MkdirTemp(w.tmpDir, "append-")
	if err != nil {
		return
	}
	defer os.RemoveAll(dir)
	jn, err := journal.Open(dir, journal.Options{})
	if err != nil {
		return
	}
	defer jn.Close()
	pid := sp.begin("journal.replay", "bench", root)
	defer sp.end(pid)
	for _, rec := range recs[:min(len(recs), 400)] {
		id := sp.begin("journal.Append", "journal", pid)
		t := time.Now()
		_, err := jn.Append(rec)
		d := time.Since(t)
		sp.end(id)
		if err != nil {
			return
		}
		w.appendMS = append(w.appendMS, ms(d))
	}
}

func (w *serviceWorkload) report(r *result, plain phase, traced *phase) {
	r.values["jobs_per_s"] = r.values["ops_per_s"]
	r.values["job_p50_ms"] = plain.wall()
	r.values["job_p95_ms"] = plain.tail()
	if traced == nil {
		return
	}
	var g []*fingers.Graph
	for _, name := range jobGraphs {
		if ge, err := w.reg.Get(name); err == nil {
			g = append(g, ge.Graph)
		}
	}
	reportRows(r, g)
	r.values["service.submit_ms_p50"] = median(w.submit)
	r.values["service.submit_ms_p95"] = quantile(w.submit, 0.95)
	r.values["service.queue_wait_ms_p50"] = median(w.queueWait)
	r.values["service.queue_wait_ms_p95"] = quantile(w.queueWait, 0.95)
	r.values["service.run_ms_p50"] = median(w.runMS)
	r.values["service.deliver_ms_p50"] = median(w.deliver)
	r.values["service.status_ms_p50"] = median(w.stats)
	r.values["service.rejected"] = float64(w.rejected)
	r.values["service.retried"] = float64(w.retried)
	r.values["journal.append_ms_p50"] = median(w.appendMS)
	r.values["journal.append_ms_p95"] = quantile(w.appendMS, 0.95)
	recs, _, err := journal.ReplayDir(w.dir)
	segs, serr := journal.Segments(w.dir)
	if err != nil || serr != nil {
		r.check(false, false, "journal replay: %v %v", err, serr)
		return
	}
	var size int64
	for _, s := range segs {
		if fi, err := os.Stat(filepath.Join(w.dir, s)); err == nil {
			size += fi.Size()
		}
	}
	jobs := float64(len(plain.units) + len(traced.units))
	r.values["journal.records"] = float64(len(recs)) / jobs
	r.values["journal.bytes"] = float64(size) / jobs
}
