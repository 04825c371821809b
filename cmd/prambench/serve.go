package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/memmap"
	"repro/internal/model"
	"repro/internal/replay"
	"repro/internal/serve"
)

// The serving deployment both serve workloads share: four external tenants
// of 128 processors on a K = 2 bipartite pool, behind the HTTP front end on
// a loopback listener, rounds driven by a 100 µs ticker.
const (
	serveTenants  = 4
	serveProcs    = 128
	serveEngines  = 2
	serveQueueCap = 1024 // at the open loop's rate a tenant's queue outlasts a ~1.4 s host stall
	roundEvery    = 100 * time.Microsecond
	conns         = 2 // client connections; connection c owns tenants c and c+2

	openRate     = 3000.0 // serve-open: Poisson credits per second, all tenants
	closedWindow = 8      // serve-closed: credits each tenant keeps outstanding
	closedBatch  = 4      // serve-closed: credits per POST

	warmSteps     = 200 // steps per tenant in the warm-up
	scrapeEvery   = time.Second
	offerGrace    = time.Second // how late the open loop may finish offering; the host can stall the process for hundreds of ms
	drainTimeout  = 10 * time.Second
	simServeSteps = 256 // steps per tenant of the virtual-time serve behind sim_time_per_step

	connHeader = "X-Prambench-Conn"
	spanHeader = "X-Prambench-Span"
)

// Tenants t0 and t1 draw band-local uniform traffic, t2 and t3 band-local
// hotspot traffic; band i is tenant i's, so tenant i runs on shard i%K.
var servePatterns = [serveTenants]replay.Pattern{replay.Uniform, replay.Uniform, replay.Hotspot, replay.Hotspot}

func tenantName(i int) string { return "t" + strconv.Itoa(i) }

func tenantSeed(seed int64, i int) int64 { return seed*serveTenants + int64(i) }

// serveConfig is the deployment's configuration. With wrap set, tenants
// are external (credits arrive only through POST /submit) and unbounded,
// and wrap sees each tenant's source. Without it, each tenant is a
// closed-loop source of steps[i] steps: the virtual-time re-serve.
func serveConfig(seed int64, steps [serveTenants]int64, wrap func(int, serve.Source) serve.Source) serve.Config {
	cfg := serve.Config{Engines: serveEngines, QueueCap: serveQueueCap}
	for i := 0; i < serveTenants; i++ {
		f := serve.NewPatternSource(servePatterns[i], serveProcs, steps[i], tenantSeed(seed, i))
		arrival := serve.Arrival{Window: serveQueueCap}
		if wrap != nil {
			inner := f
			f = func(b serve.Band) serve.Source { return wrap(i, inner(b)) }
			arrival = serve.Arrival{External: true}
		}
		cfg.Tenants = append(cfg.Tenants, serve.TenantConfig{
			Name: tenantName(i), Band: i, Procs: serveProcs, Source: f, Arrival: arrival,
		})
	}
	return cfg
}

// countingSource wraps a tenant's source. Each NextBatch call is one step
// the round in progress executes, so the tick loop learns from the count
// which credits a Tick ran without looking inside the server.
type countingSource struct {
	serve.Source
	d      *deployment
	tenant int
	calls  int64 // tick goroutine only
}

// NextBatch implements serve.Source.
func (c *countingSource) NextBatch() (model.Batch, bool) {
	st := c.d.tr
	if st == nil || !st.on.Load() {
		c.calls++
		return c.Source.NextBatch()
	}
	start := time.Now()
	b, ok := c.Source.NextBatch()
	end := time.Now()
	c.calls++
	st.source(c.tenant, b, start, end)
	return b, ok
}

// deployment is one live serving stack: server, HTTP front end, listener
// and the benchmark's copy of HTTPServer.Loop.
type deployment struct {
	srv    *serve.Server
	hs     *serve.HTTPServer
	web    *http.Server
	url    string
	served chan error
	src    [serveTenants]*countingSource
	tr     *serveTrace // nil untraced

	// Owned by the tick goroutine; read by others after the loop stops.
	completed [serveTenants][]time.Time // Tick return time of each executed step
	seen      [serveTenants]int64

	executed [serveTenants]atomic.Int64 // steps executed, published after each Tick
	wake     [conns]chan struct{}       // nudges a client after a Tick that ran steps

	stop     chan struct{}
	loopDone chan struct{}
}

func newDeployment(seed int64, st *serveTrace) (*deployment, error) {
	d := &deployment{tr: st, served: make(chan error, 1), stop: make(chan struct{}), loopDone: make(chan struct{})}
	for c := range d.wake {
		d.wake[c] = make(chan struct{}, 1)
	}
	srv, err := serve.NewServer(serveConfig(seed, [serveTenants]int64{}, func(i int, s serve.Source) serve.Source {
		d.src[i] = &countingSource{Source: s, d: d, tenant: i}
		return d.src[i]
	}))
	if err != nil {
		return nil, err
	}
	d.srv = srv
	d.hs = serve.NewHTTPServer(srv, serve.HTTPOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	var h http.Handler = d.hs.Handler()
	if st != nil {
		h = st.middleware(h)
	}
	d.web = &http.Server{Handler: h}
	d.url = "http://" + ln.Addr().String()
	go func() { d.served <- d.web.Serve(ln) }()
	go d.loop()
	return d, nil
}

// loop is the benchmark's copy of HTTPServer.Loop: a ticker calling the
// public Tick. With round_every at 100 µs and Go timers on small hosts
// overshooting by far more, rounds run back to back whenever work is
// queued.
func (d *deployment) loop() {
	defer close(d.loopDone)
	tick := time.NewTicker(roundEvery)
	defer tick.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-tick.C:
			d.tick()
		}
	}
}

func (d *deployment) tick() {
	st := d.tr
	traced := st != nil && st.on.Load()
	if traced {
		st.tickID = st.tr.id()
	}
	start := time.Now()
	d.hs.Tick()
	end := time.Now()
	var ran [serveTenants]bool
	ranAny := false
	for i, s := range d.src {
		for d.seen[i] < s.calls {
			d.completed[i] = append(d.completed[i], end)
			d.seen[i]++
			ran[i], ranAny = true, true
		}
		d.executed[i].Store(s.calls)
	}
	if traced {
		st.tick(d, start, end, ran, ranAny)
	}
	if ranAny {
		for _, w := range d.wake {
			select {
			case w <- struct{}{}:
			default:
			}
		}
	}
}

// close stops the loop, drains and shuts the front end down, and retires
// the pool's workers.
func (d *deployment) close() error {
	close(d.stop)
	<-d.loopDone
	err := d.hs.Shutdown()
	d.web.Close()
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.srv.Close()
	return err
}

// client is one keep-alive connection and the two tenants it owns.
type client struct {
	d       *deployment
	idx     int
	hc      *http.Client
	tenants [2]int

	// Owned by the client's goroutine; read by others after it returns.
	dues      [2][]time.Time // due time of each accepted credit, in acceptance order
	posted    [2]int64       // credits accepted per owned tenant
	lost      []time.Time    // due time of each credit that was refused or failed
	stats     clientStats
	badStatus []int
}

// clientStats is what a client measures in the window.
type clientStats struct {
	offered, rejected, failed int64 // credits
	responses, throttled      int64 // submit responses, of which 429
	late                      int64 // open loop: submits sent after the window's end plus grace
	submitLat, lag, transport samples
}

func newClient(d *deployment, idx int) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{d: d, idx: idx, tenants: [2]int{idx, idx + conns},
		hc: &http.Client{Transport: tr, Timeout: 10 * time.Second}}
}

// submit posts credits for a tenant and books the answer. due is when the
// credits were due to be sent; latencies count from it.
func (c *client) submit(slot, credits int, due time.Time) {
	t := c.tenants[slot]
	req, err := http.NewRequest(http.MethodPost,
		c.d.url+"/submit?tenant="+tenantName(t)+"&steps="+strconv.Itoa(credits), nil)
	if err != nil {
		panic(err) // the URL is built here; a bad one is a bug
	}
	req.Header.Set(connHeader, strconv.Itoa(c.idx))
	st := c.d.tr
	var id int64
	if st != nil {
		id = st.tr.id()
		req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	c.stats.offered += int64(credits)
	sent := time.Now()
	resp, err := c.hc.Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	got := time.Now()
	if err != nil {
		c.lose(credits, credits, due)
		return
	}
	c.stats.responses++
	var ack struct{ Accepted, Rejected int }
	switch resp.StatusCode {
	case http.StatusOK, http.StatusTooManyRequests:
		if err := json.Unmarshal(body, &ack); err != nil || ack.Accepted+ack.Rejected != credits {
			c.badStatus = append(c.badStatus, resp.StatusCode)
			c.lose(credits, credits, due)
			return
		}
	default:
		c.badStatus = append(c.badStatus, resp.StatusCode)
		c.lose(credits, credits, due)
		return
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		c.stats.throttled++
		c.stats.submitLat.addFailed()
	} else {
		c.stats.submitLat.add(got.Sub(due))
	}
	c.stats.rejected += int64(ack.Rejected)
	c.lose(ack.Rejected, 0, due)
	for k := 0; k < ack.Accepted; k++ {
		c.dues[slot] = append(c.dues[slot], due)
	}
	c.posted[slot] += int64(ack.Accepted)
	if st != nil && st.on.Load() {
		st.tr.add(id, 0, "client POST /submit", 10+c.idx, sent, got, int64(t))
		c.stats.transport.add(got.Sub(sent) - time.Duration(st.handlerNs[c.idx].Load()))
	}
}

// lose books refused credits, of which failed were lost to a failed
// request rather than refused by a 429.
func (c *client) lose(credits, failed int, due time.Time) {
	c.stats.failed += int64(failed)
	if failed > 0 {
		c.stats.submitLat.addFailed()
	}
	for k := 0; k < credits; k++ {
		c.lost = append(c.lost, due)
	}
}

// scrape fetches /metrics as a Prometheus server would.
func (c *client) scrape() {
	req, err := http.NewRequest(http.MethodGet, c.d.url+"/metrics", nil)
	if err != nil {
		panic(err)
	}
	req.Header.Set(connHeader, strconv.Itoa(c.idx))
	st := c.d.tr
	var id int64
	if st != nil {
		id = st.tr.id()
		req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	sent := time.Now()
	resp, err := c.hc.Do(req)
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	switch {
	case err != nil:
		c.badStatus = append(c.badStatus, 0) // no answer at all
		return
	case resp.StatusCode != http.StatusOK:
		c.badStatus = append(c.badStatus, resp.StatusCode)
	}
	if st != nil && st.on.Load() {
		st.tr.add(id, 0, "client GET /metrics", 10+c.idx, sent, time.Now(), 0)
	}
}

// arrival is one scheduled open-loop event.
type arrival struct {
	at     time.Duration // from the window's start
	slot   int
	scrape bool
}

// openSchedule draws a connection's Poisson arrivals for the window from the
// seed: rate openRate/conns, each credit for one of the connection's two
// tenants. Connection 0 also scrapes /metrics once per scrapeEvery.
func openSchedule(seed int64, idx int, window time.Duration) []arrival {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(idx)))
	rate := openRate / conns
	var evs []arrival
	for at := rng.ExpFloat64() / rate; at < window.Seconds(); at += rng.ExpFloat64() / rate {
		evs = append(evs, arrival{at: time.Duration(at * float64(time.Second)), slot: rng.Intn(2)})
	}
	if idx == 0 {
		for at := scrapeEvery / 2; at < window; at += scrapeEvery {
			evs = append(evs, arrival{at: at, scrape: true})
		}
		slices.SortStableFunc(evs, func(a, b arrival) int { return cmp.Compare(a.at, b.at) })
	}
	return evs
}

// runOpen sends the schedule, each event as soon as it is due. A busy
// connection sends late; the lag is recorded and latencies still count from
// the due time.
func (c *client) runOpen(start, end time.Time, evs []arrival) {
	for _, ev := range evs {
		due := start.Add(ev.at)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		sent := time.Now()
		c.stats.lag.add(sent.Sub(due))
		if ev.scrape {
			c.scrape()
			continue
		}
		if sent.After(end.Add(offerGrace)) {
			c.stats.late++
		}
		c.submit(ev.slot, 1, due)
	}
}

// runClosed keeps closedWindow credits outstanding per owned tenant and
// posts closedBatch more whenever that many have completed. It returns at
// stopAt, or, when target > 0, once each owned tenant has had target
// credits accepted and executed (the warm-up).
func (c *client) runClosed(stopAt time.Time, target int64, scrapes bool) {
	fallback := time.NewTicker(5 * time.Millisecond)
	defer fallback.Stop()
	nextScrape := time.Now().Add(scrapeEvery / 2)
	for {
		now := time.Now()
		if target == 0 && !now.Before(stopAt) {
			return
		}
		if target > 0 && c.posted[0] >= target && c.posted[1] >= target &&
			c.d.executed[c.tenants[0]].Load() >= target && c.d.executed[c.tenants[1]].Load() >= target {
			return
		}
		progress := false
		for slot, t := range c.tenants {
			if target > 0 && c.posted[slot] >= target {
				continue
			}
			if c.posted[slot]-c.d.executed[t].Load() <= closedWindow-closedBatch {
				c.submit(slot, closedBatch, time.Now())
				progress = true
			}
		}
		if scrapes && c.idx == 0 && !now.Before(nextScrape) {
			c.scrape()
			nextScrape = nextScrape.Add(scrapeEvery)
			progress = true
		}
		if !progress {
			select {
			case <-c.d.wake[c.idx]:
			case <-fallback.C:
			}
		}
	}
}

// each runs f on every client concurrently and waits for all of them.
func each(cs []*client, f func(*client)) {
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(c)
		}()
	}
	wg.Wait()
}

// waitDrained waits until every accepted credit has executed.
func (d *deployment) waitDrained(cs []*client) error {
	deadline := time.Now().Add(drainTimeout)
	for {
		done := true
		for _, c := range cs {
			for slot, t := range c.tenants {
				if d.executed[t].Load() < c.posted[slot] {
					done = false
				}
			}
		}
		if done {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("accepted credits still queued %v after the window", drainTimeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// setUpServe builds a deployment and warms it up with a closed-loop run of
// warmSteps steps per tenant.
func setUpServe(seed int64, st *serveTrace) (*deployment, []*client, error) {
	d, err := newDeployment(seed, st)
	if err != nil {
		return nil, nil, err
	}
	cs := []*client{newClient(d, 0), newClient(d, 1)}
	each(cs, func(c *client) { c.runClosed(time.Time{}, warmSteps, false) })
	if err := d.waitDrained(cs); err != nil {
		closeAll(d, cs)
		return nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	return d, cs, nil
}

// closeAll shuts a deployment down and drops its clients' connections.
func closeAll(d *deployment, cs []*client) error {
	err := d.close()
	for _, c := range cs {
		c.hc.CloseIdleConnections()
	}
	return err
}

// runServe runs one serving workload: `setups` set-ups (the last one is
// kept), the measured window, the drain, and the output checks.
func runServe(name string, seed int64, window time.Duration, tr *tracer, setups int) (*result, simCost) {
	res := newResult(name, tr != nil)
	var st *serveTrace
	if tr != nil {
		st = newServeTrace(tr)
	}
	var (
		d     *deployment
		cs    []*client
		setup []float64
	)
	for i := 0; i < setups; i++ {
		if d != nil {
			if err := closeAll(d, cs); err != nil {
				res.fail(err)
				return res, simCost{}
			}
			d = nil
			debug.FreeOSMemory() // each set-up starts from returned memory, like a fresh process
		}
		start := time.Now()
		var err error
		if d, cs, err = setUpServe(seed, st); err != nil {
			res.fail(err)
			return res, simCost{}
		}
		setup = append(setup, time.Since(start).Seconds())
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	for _, c := range cs {
		c.stats = clientStats{}
	}
	var evs [conns][]arrival
	if name == "serve-open" {
		for i := range evs {
			evs[i] = openSchedule(seed, i, window)
		}
	}
	if st != nil {
		st.on.Store(true)
	}
	start := time.Now()
	end := start.Add(window)
	each(cs, func(c *client) {
		if name == "serve-open" {
			c.runOpen(start, end, evs[c.idx])
		} else {
			c.runClosed(end, 0, true)
		}
	})
	if st != nil {
		st.on.Store(false)
	}
	drainErr := d.waitDrained(cs)
	if err := closeAll(d, cs); err != nil {
		res.fail(err)
	}
	if drainErr != nil {
		res.fail(drainErr)
	}

	var live [serveTenants]serve.TenantStats
	for i := range live {
		live[i] = d.srv.TenantStats(i)
	}
	checkServe(res, d, cs, live)
	if res.Correct {
		if err := reserve(seed, live); err != nil {
			res.fail(err)
		}
	}
	cost, err := serveSimCost(seed)
	if err != nil {
		res.fail(err)
	}

	// Credit latencies: from due time to the return of the Tick that ran
	// the credit, +Inf for a refused or failed credit, in due-time order.
	// Acceptance order is execution order per tenant, so the j-th accepted
	// credit is the j-th executed step.
	type credit struct {
		due time.Time
		ms  float64
	}
	var credits []credit
	var total clientStats
	for _, c := range cs {
		for slot, t := range c.tenants {
			for j, due := range c.dues[slot] {
				if due.Before(start) || j >= len(d.completed[t]) {
					continue
				}
				credits = append(credits, credit{due, ms(d.completed[t][j].Sub(due))})
			}
		}
		for _, due := range c.lost {
			if !due.Before(start) {
				credits = append(credits, credit{due, math.Inf(1)})
			}
		}
		total.offered += c.stats.offered
		total.rejected += c.stats.rejected
		total.failed += c.stats.failed
		total.responses += c.stats.responses
		total.throttled += c.stats.throttled
		total.late += c.stats.late
		total.submitLat = append(total.submitLat, c.stats.submitLat...)
		total.lag = append(total.lag, c.stats.lag...)
		total.transport = append(total.transport, c.stats.transport...)
	}
	slices.SortFunc(credits, func(a, b credit) int { return a.due.Compare(b.due) })
	lat := make(samples, len(credits))
	for i, c := range credits {
		lat[i] = c.ms
	}
	var steps int64 // completed in the window
	for _, ts := range d.completed {
		for _, at := range ts {
			if !at.Before(start) && !at.After(end) {
				steps++
			}
		}
	}
	if total.late > 0 {
		res.fail(fmt.Errorf("load generator invalid: %d of %d credits offered after the window's end plus %v",
			total.late, total.offered, offerGrace))
	}

	n := int64(len(lat))
	res.Attempted = total.offered
	res.Failed = total.rejected + total.failed
	res.set("setup_s", median(setup), "s", int64(len(setup)))
	res.set("steps_per_s", float64(steps)/window.Seconds(), "steps/s", steps)
	res.set("latency_ms_p50", chunkMedian(lat, samples.p50), "ms", n)
	res.set("latency_ms_p99", chunkMedian(lat, samples.p99), "ms", n)
	res.set("heap_mb", float64(mem.HeapAlloc)/(1<<20), "MiB", 1)
	res.set("failed_ratio", ratio(float64(res.Failed), float64(total.offered)), "fraction", total.offered)
	res.set("submit_ms_p50", total.submitLat.quantile(0.50), "ms", int64(len(total.submitLat)))
	res.set("submit_ms_p99", total.submitLat.quantile(0.99), "ms", int64(len(total.submitLat)))
	res.set("sim_time_per_step", ratio(float64(cost.Time), float64(cost.Steps)), "sim_units", cost.Steps)
	res.set("sim.phases_per_step", ratio(float64(cost.Phases), float64(cost.Steps)), "phases", cost.Steps)
	res.set("sim.cycles_per_step", ratio(float64(cost.Cycles), float64(cost.Steps)), "cycles", cost.Steps)
	if st != nil {
		st.layers(res, d, live, total, steps, window)
	}
	return res, cost
}

// checkServe applies the serving output checks: only 200 and 429 answers,
// the admission identity per tenant, no step errors, and agreement between
// what clients were told and what the server accounted.
func checkServe(res *result, d *deployment, cs []*client, live [serveTenants]serve.TenantStats) {
	for _, c := range cs {
		if len(c.badStatus) > 0 {
			res.fail(fmt.Errorf("connection %d: unexpected HTTP statuses %v", c.idx, c.badStatus))
		}
		for slot, t := range c.tenants {
			st := live[t]
			if st.Steps != c.posted[slot] || int64(len(d.completed[t])) != st.Steps {
				res.fail(fmt.Errorf("tenant %s: %d credits accepted, %d steps accounted, %d executions seen",
					st.Name, c.posted[slot], st.Steps, len(d.completed[t])))
			}
		}
	}
	for _, st := range live {
		if st.Submitted != st.Steps+int64(st.Queue)+st.Rejected+st.Unserved {
			res.fail(fmt.Errorf("tenant %s: submitted %d != steps %d + queue %d + rejected %d + unserved %d",
				st.Name, st.Submitted, st.Steps, st.Queue, st.Rejected, st.Unserved))
		}
		if st.ErrSteps != 0 {
			res.fail(fmt.Errorf("tenant %s: %d steps reported errors", st.Name, st.ErrSteps))
		}
		if st.SrcErr != nil {
			res.fail(fmt.Errorf("tenant %s: source: %w", st.Name, st.SrcErr))
		}
	}
}

// serveVirtual serves steps[i] steps of each tenant in virtual time
// (Server.ServeAll: no HTTP, no wall clock) and returns the tenants'
// accounts.
func serveVirtual(seed int64, steps [serveTenants]int64) ([serveTenants]serve.TenantStats, error) {
	var out [serveTenants]serve.TenantStats
	var total int64
	for _, n := range steps {
		total += n
	}
	srv, err := serve.NewServer(serveConfig(seed, steps, nil))
	if err != nil {
		return out, err
	}
	defer srv.Close()
	if err := srv.ServeAll(int(total) + 64); err != nil {
		return out, fmt.Errorf("virtual-time serve: %w", err)
	}
	for i := range out {
		out[i] = srv.TenantStats(i)
	}
	return out, nil
}

// reserve re-serves each tenant for its live step count and compares
// report hashes. A tenant's results depend only on its own band and step
// stream, so the live run must reproduce them exactly.
func reserve(seed int64, live [serveTenants]serve.TenantStats) error {
	var steps [serveTenants]int64
	for i, st := range live {
		if st.Steps == 0 {
			return fmt.Errorf("tenant %s executed no steps", st.Name)
		}
		steps[i] = st.Steps
	}
	again, err := serveVirtual(seed, steps)
	if err != nil {
		return err
	}
	for i, st := range live {
		if got := again[i]; got.Steps != st.Steps || got.Hash != st.Hash {
			return fmt.Errorf("tenant %s: live run %d steps hash %#x, virtual-time re-serve %d steps hash %#x",
				st.Name, st.Steps, st.Hash, got.Steps, got.Hash)
		}
	}
	return nil
}

// serveSimCost is the simulated cost of simServeSteps steps per tenant:
// the serve workloads' sim metrics, fixed per seed.
func serveSimCost(seed int64) (simCost, error) {
	var steps [serveTenants]int64
	for i := range steps {
		steps[i] = simServeSteps
	}
	stats, err := serveVirtual(seed, steps)
	var c simCost
	for _, st := range stats {
		c.Steps += st.Steps
		c.Time += st.SimTime
		c.Phases += st.Phases
		c.Cycles += st.Cycles
		c.Copies += st.Copies
	}
	return c, err
}

// serveTrace is the traced serving run's instrumentation: spans around
// Tick, every source call, every client request and every handler, plus
// the counters the per-layer metrics come from. It records only while on,
// i.e. during the window.
type serveTrace struct {
	tr *tracer
	on atomic.Bool

	handlerNs [conns]atomic.Int64 // last submit handler time per connection

	mu          sync.Mutex // guards the handler-side fields
	handler     samples    // POST /submit handler times
	scrape      samples    // GET /metrics handler times
	scrapeBytes int64

	// Tick goroutine.
	tickID                      int64
	ticks, execTicks            samples
	busy                        time.Duration
	gen                         time.Duration
	steps, requests             int64
	dedup, readPhases, liveArea int64
	active, components, forced  int64
	mapGen                      time.Duration
}

func newServeTrace(tr *tracer) *serveTrace {
	tr.nameTrack(1, "round loop")
	for c := 0; c < conns; c++ {
		tr.nameTrack(10+c, "client connection "+strconv.Itoa(c))
		tr.nameTrack(20+c, "server handler, connection "+strconv.Itoa(c))
	}
	// NewServer generates the banded map internally; this times the same
	// call on the same parameters, which the run checks against the server.
	p := memmap.LemmaTwo(serveProcs*serveTenants, 2, 1)
	start := time.Now()
	memmap.GenerateBanded(p, 1, serveTenants)
	return &serveTrace{tr: tr, mapGen: time.Since(start)}
}

func (s *serveTrace) source(tenant int, b model.Batch, start, end time.Time) {
	s.gen += end.Sub(start)
	s.steps++
	s.requests += int64(b.Active())
	s.tr.add(s.tr.id(), s.tickID, "serve.Source.NextBatch", 1, start, end, int64(tenant))
}

func (s *serveTrace) tick(d *deployment, start, end time.Time, ran [serveTenants]bool, ranAny bool) {
	dur := end.Sub(start)
	s.tr.add(s.tickID, 0, "serve.HTTPServer.Tick", 1, start, end, 0)
	s.ticks.add(dur)
	s.busy += dur
	if !ranAny {
		return
	}
	s.execTicks.add(dur)
	pool := d.srv.Pool()
	s.active += int64(pool.LastActive())
	s.components += int64(pool.LastComponents())
	s.forced += int64(serveEngines - pool.LastComponents())
	for t, ok := range ran {
		if !ok {
			continue
		}
		sh := t % serveEngines
		s.dedup += int64(pool.LastDedupRequests(sh))
		_, readPhases, area := pool.LastStepBreakdown(sh)
		s.readPhases += int64(readPhases)
		s.liveArea += area
	}
}

// middleware times every handler call, including its wait for the
// server's mutex.
func (s *serveTrace) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(cw, r)
		end := time.Now()
		if !s.on.Load() {
			return
		}
		c, _ := strconv.Atoi(r.Header.Get(connHeader))
		c = min(max(c, 0), conns-1)
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		s.tr.add(s.tr.id(), parent, "http "+r.Method+" "+r.URL.Path, 20+c, start, end, 0)
		d := end.Sub(start)
		s.mu.Lock()
		if r.URL.Path == "/metrics" {
			s.scrape.add(d)
			s.scrapeBytes += cw.n
		} else {
			s.handler.add(d)
		}
		s.mu.Unlock()
		s.handlerNs[c].Store(int64(d))
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// layers derives a traced serving run's per-layer metrics.
func (s *serveTrace) layers(res *result, d *deployment, live [serveTenants]serve.TenantStats, total clientStats, steps int64, window time.Duration) {
	if p := d.srv.Params(); p != memmap.LemmaTwo(serveProcs*serveTenants, 2, 1) {
		res.fail(fmt.Errorf("memmap probe timed parameters %v, the server runs %v", memmap.LemmaTwo(serveProcs*serveTenants, 2, 1), p))
	}
	var all serve.TenantStats
	for _, st := range live {
		all.Steps += st.Steps
		all.Phases += st.Phases
		all.Copies += st.Copies
		all.MaxCont = max(all.MaxCont, st.MaxCont)
	}
	n := float64(s.steps)
	execRounds := int64(len(s.execTicks))
	rounds := float64(execRounds)
	res.set("input.gen_ms_per_step", ms(s.gen)/n, "ms", s.steps)
	res.set("exec.call_ms_p50", s.execTicks.quantile(0.50), "ms", execRounds)
	res.set("exec.call_ms_p99", s.execTicks.quantile(0.99), "ms", execRounds)
	res.set("memmap.generate_s", s.mapGen.Seconds(), "s", 1)
	res.set("quorum.store_mb", storeMiB(d.srv.Params()), "MiB", 1)
	res.set("quorum.requests_per_step", float64(s.requests)/n, "count", s.steps)
	res.set("quorum.dedup_requests_per_step", float64(s.dedup)/n, "count", s.steps)
	res.set("quorum.dedup_ratio", ratio(float64(s.dedup), float64(s.requests)), "ratio", s.steps)
	res.set("quorum.phases_per_step", ratio(float64(all.Phases), float64(all.Steps)), "count", all.Steps)
	res.set("quorum.read_phases_per_step", float64(s.readPhases)/n, "count", s.steps)
	res.set("quorum.copy_accesses_per_step", ratio(float64(all.Copies), float64(all.Steps)), "count", all.Steps)
	res.set("quorum.live_area_per_step", float64(s.liveArea)/n, "count", s.steps)
	res.set("quorum.max_module_load", float64(all.MaxCont), "count", all.Steps)
	res.set("replay.gen_ms_per_step", ms(s.gen)/n, "ms", s.steps)

	res.set("pool.active_shards_per_round", float64(s.active)/rounds, "count", execRounds)
	res.set("pool.components_per_round", float64(s.components)/rounds, "count", execRounds)
	res.set("pool.dedup_requests_per_round", float64(s.dedup)/rounds, "count", execRounds)
	res.set("serve.forced_merges", float64(s.forced), "count", execRounds)
	res.set("serve.tick_ms_p50", s.ticks.quantile(0.50), "ms", int64(len(s.ticks)))
	res.set("serve.tick_ms_p99", s.ticks.quantile(0.99), "ms", int64(len(s.ticks)))
	res.set("serve.round_busy_share", s.busy.Seconds()/window.Seconds(), "ratio", int64(len(s.ticks)))
	res.set("serve.exec_round_ratio", ratio(rounds, float64(len(s.ticks))), "ratio", int64(len(s.ticks)))
	res.set("serve.steps_per_exec_round", ratio(float64(steps), rounds), "count", execRounds)
	res.set("serve.rejected_ratio", ratio(float64(total.rejected), float64(total.offered)), "ratio", total.offered)

	s.mu.Lock()
	defer s.mu.Unlock()
	res.set("http.handler_ms_p50", s.handler.quantile(0.50), "ms", int64(len(s.handler)))
	res.set("http.handler_ms_p99", s.handler.quantile(0.99), "ms", int64(len(s.handler)))
	res.set("http.transport_ms_p50", total.transport.quantile(0.50), "ms", int64(len(total.transport)))
	res.set("http.status_429_ratio", ratio(float64(total.throttled), float64(total.responses)), "ratio", total.responses)
	res.set("prom.scrape_ms_p50", s.scrape.quantile(0.50), "ms", int64(len(s.scrape)))
	res.set("prom.scrape_ms_max", s.scrape.max(), "ms", int64(len(s.scrape)))
	res.set("prom.scrape_kb", ratio(float64(s.scrapeBytes)/1024, float64(len(s.scrape))), "KiB", int64(len(s.scrape)))
	if len(total.lag) > 0 {
		res.set("loadgen.lag_ms_p50", total.lag.quantile(0.50), "ms", int64(len(total.lag)))
		res.set("loadgen.lag_ms_p99", total.lag.quantile(0.99), "ms", int64(len(total.lag)))
	}
	res.set("loadgen.offered_per_s", float64(total.offered)/window.Seconds(), "credits/s", total.offered)
}
