package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"sirum"
	"sirum/internal/router"
	"sirum/internal/rule"
	"sirum/internal/server"
	"sirum/internal/spec"
)

// serve-append: two closed-loop clients against an in-process sirumr in
// front of two in-process sirumd shards. Each client owns one income
// session on each shard and repeats a fixed cycle per session: one append,
// then two fresh-seed mines each followed by two exact repeats. The repeats
// are cache hits, so hits are exactly two thirds of the reads: the median
// read is a hit and the tail read a miss, each well inside its mode.
const (
	serveClients     = 2
	serveShards      = 2
	serveRows        = 2000 // rows of each session before its appends
	serveBatchRows   = 4    // rows per append
	serveMinCycles   = 4    // cycles every client completes; the traced run's per-layer metrics cover exactly these
	serveTailQ       = 0.9
	serveRepeats     = 2 // exact repeats after each fresh-seed mine
	serveMinesPerApp = 2 // fresh-seed mines after each append
)

// serveMine is the mine query every read sends, with its own seed.
var serveMine = server.MineRequest{K: 3}

// cluster is the in-process deployment: shards, router and their listeners.
type cluster struct {
	shards []*server.Server
	rt     *router.Router
	https  []*http.Server
	served sync.WaitGroup
	urls   []string // shard base URLs, in topology order
	url    string   // the router's base URL
}

// listen serves h on a loopback port until the cluster closes.
func (c *cluster) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	c.https = append(c.https, hs)
	c.served.Add(1)
	go func() {
		defer c.served.Done()
		hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return "http://" + ln.Addr().String(), nil
}

// startCluster starts the shards and the router; tr, when not nil, records
// a span around every session request each of them handles. No shard has a
// snapshot directory: the flush policy is "none".
func startCluster(tr *tracer) (*cluster, error) {
	c := &cluster{}
	for i := 0; i < serveShards; i++ {
		s := server.New(server.Config{ShardID: fmt.Sprintf("s%d", i)})
		c.shards = append(c.shards, s)
		u, err := c.listen(tr.wrap("shard", s.Handler()))
		if err != nil {
			c.close()
			return nil, err
		}
		c.urls = append(c.urls, u)
	}
	rt, err := router.New(router.Config{Shards: c.urls, HealthInterval: -1})
	if err != nil {
		c.close()
		return nil, err
	}
	c.rt = rt
	if c.url, err = c.listen(tr.wrap("router", rt.Handler())); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// close stops the listeners, waits for them, then closes router and shards.
func (c *cluster) close() error {
	var errs []error
	for _, hs := range c.https {
		errs = append(errs, hs.Close())
	}
	c.served.Wait()
	if c.rt != nil {
		errs = append(errs, c.rt.Close())
	}
	for _, s := range c.shards {
		errs = append(errs, s.Close())
	}
	return errors.Join(errs...)
}

// serveSession is one session and what its client has had acknowledged.
type serveSession struct {
	id      string
	genSeed int64
	appends int   // acknowledged appends
	seed    int64 // the last mine seed sent
}

// planSessions picks, for every client, one income generator seed per
// shard, so both shards host sessions and no two sessions share a source
// (and with it cache keys). Placement is a pure function of the source, so
// the plan depends only on the workload seed.
func planSessions(c *cluster, seed int64) ([][]*serveSession, error) {
	rng := rand.New(rand.NewSource(seed))
	plan := make([][]*serveSession, serveClients)
	for c := range plan {
		plan[c] = make([]*serveSession, serveShards)
	}
	need := serveClients * serveShards
	for tries := 0; need > 0; tries++ {
		if tries > 1000 {
			return nil, fmt.Errorf("no placement covers every shard")
		}
		g := 2 + rng.Int63n(1<<40)
		ds, err := createRequest("", g).DatasetSpec()
		if err != nil {
			return nil, err
		}
		home, err := c.rt.Place(spec.RoutingKey(ds))
		if err != nil {
			return nil, err
		}
		shard := slices.Index(c.urls, home)
		if shard < 0 {
			return nil, fmt.Errorf("placement on unknown shard %q", home)
		}
		for client := range plan {
			if plan[client][shard] == nil {
				plan[client][shard] = &serveSession{id: fmt.Sprintf("c%d-s%d", client, shard), genSeed: g, seed: 1000}
				need--
				break
			}
		}
	}
	return plan, nil
}

func createRequest(id string, genSeed int64) server.CreateRequest {
	return server.CreateRequest{ID: id, Generator: &server.GeneratorSpec{Name: "income", Rows: serveRows, Seed: genSeed}}
}

// batchPool generates the rows appends draw from: income rows, so every
// value is already in the sessions' domains.
func batchPool(seed int64) ([]server.RowJSON, error) {
	ds, err := sirum.Generate("income", 256, seed)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")[1:]
	rows := make([]server.RowJSON, len(lines))
	for i, line := range lines {
		f := strings.Split(line, ",")
		m, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err != nil {
			return nil, err
		}
		rows[i] = server.RowJSON{Dims: f[:len(f)-1], Measure: m}
	}
	return rows, nil
}

// serveClient is one closed-loop client and what it observed. Only its
// own goroutine touches it during the window.
type serveClient struct {
	http     *server.Client
	sessions []*serveSession
	pool     []server.RowJSON
	tr       *tracer

	attempted     int
	failures      []error
	reads, writes []float64 // latencies in ms
	hits, misses  []float64 // read latencies by class
	borrows       int64     // scratch tables the computed responses borrowed
	tot           queryTotals
	pre           prefixCounts
	last          time.Time // when the client's last operation ended
}

// prefixCounts counts the traced cycles' requests by outcome.
type prefixCounts struct{ ops, reads, hits, bytes, appends, remined int }

func (p *prefixCounts) add(o prefixCounts) {
	p.ops += o.ops
	p.reads += o.reads
	p.hits += o.hits
	p.bytes += o.bytes
	p.appends += o.appends
	p.remined += o.remined
}

func (c *serveClient) post(path string, body any) ([]byte, time.Time, time.Time, error) {
	in, err := json.Marshal(body)
	if err != nil {
		return nil, time.Time{}, time.Time{}, err
	}
	start := time.Now()
	raw, err := c.http.DoRaw("POST", path, "application/json", in)
	end := time.Now()
	if err != nil {
		return nil, start, end, err
	}
	if raw.Status != http.StatusOK {
		return nil, start, end, fmt.Errorf("POST %s: status %d: %s", path, raw.Status, bytes.TrimSpace(raw.Body))
	}
	return raw.Body, start, end, nil
}

// appendBatch appends the session's next fixed-size batch and checks the
// acknowledged row count.
func (c *serveClient) appendBatch(s *serveSession, traced bool) (time.Duration, error) {
	rows := make([]server.RowJSON, serveBatchRows)
	for i := range rows {
		rows[i] = c.pool[(s.appends*serveBatchRows+i)%len(c.pool)]
	}
	body, start, end, err := c.post("/v1/datasets/"+s.id+"/append", server.AppendRequest{Rows: rows, MineRequest: serveMine})
	if err != nil {
		return 0, err
	}
	var resp server.AppendResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, fmt.Errorf("append %s: %w", s.id, err)
	}
	s.appends++
	if want := serveRows + s.appends*serveBatchRows; resp.Rows != want {
		return 0, fmt.Errorf("append %s: %d rows acknowledged, want %d", s.id, resp.Rows, want)
	}
	if traced {
		c.tr.add(span{layer: "client", session: s.id, class: "append", start: start, end: end, parent: -1})
		c.pre.appends++
		if resp.Remined {
			c.pre.remined++
		}
	}
	return end.Sub(start), nil
}

// mine sends one mine and checks it against the expected cache outcome:
// a miss must be computed, a hit must return the computed body for the
// same key byte for byte, marked cached.
func (c *serveClient) mine(s *serveSession, seed int64, computed []byte, traced bool) ([]byte, time.Duration, error) {
	req := serveMine
	req.Seed = seed
	body, start, end, err := c.post("/v1/datasets/"+s.id+"/mine", req)
	if err != nil {
		return nil, 0, err
	}
	d := end.Sub(start)
	cached := bytes.HasSuffix(body, []byte(`,"cached":true}`+"\n"))
	sp := span{layer: "client", session: s.id, class: "hit", start: start, end: end, parent: -1}
	if computed == nil {
		if cached {
			return nil, d, fmt.Errorf("mine %s seed %d: fresh query answered from the cache", s.id, seed)
		}
		var resp server.MineResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return nil, d, fmt.Errorf("mine %s seed %d: %w", s.id, seed, err)
		}
		c.misses = append(c.misses, ms(d))
		c.borrows += resp.Metrics.Counters["scratch_borrows"]
		sp.class, sp.wall = "miss", resp.WallNS
		if traced {
			c.tot.add(resp.WallNS, resp.WallNS, resp.Metrics)
		}
	} else {
		open := bytes.TrimSuffix(computed, []byte("}\n"))
		want := append(open[:len(open):len(open)], `,"cached":true}`+"\n"...) // never write into computed
		if !bytes.Equal(body, want) {
			return nil, d, fmt.Errorf("mine %s seed %d: repeat is not the cached computed body", s.id, seed)
		}
		c.hits = append(c.hits, ms(d))
	}
	if traced {
		c.tr.add(sp)
		c.pre.reads++
		if cached {
			c.pre.hits++
		}
		c.pre.bytes += len(body)
	}
	return body, d, nil
}

// cycle runs one cycle over the client's sessions.
func (c *serveClient) cycle(traced bool) {
	for _, s := range c.sessions {
		d, err := c.appendBatch(s, traced)
		if c.done(traced, err) {
			c.writes = append(c.writes, ms(d))
		}
		for m := 0; m < serveMinesPerApp; m++ {
			s.seed++
			computed, d, err := c.mine(s, s.seed, nil, traced)
			if !c.done(traced, err) {
				continue
			}
			c.reads = append(c.reads, ms(d))
			for r := 0; r < serveRepeats; r++ {
				_, d, err := c.mine(s, s.seed, computed, traced)
				if c.done(traced, err) {
					c.reads = append(c.reads, ms(d))
				}
			}
		}
	}
	c.last = time.Now()
}

// done counts one operation of the window and reports whether it succeeded.
func (c *serveClient) done(traced bool, err error) bool {
	c.attempted++
	if traced {
		c.pre.ops++
	}
	if err != nil {
		c.failures = append(c.failures, err)
	}
	return err == nil
}

// serveSetup starts the cluster, creates every session, then warms each
// session up with one append (a session's first append always re-mines)
// and one mine.
func serveSetup(seed int64, tr *tracer, rep *report) (*cluster, []*serveClient, error) {
	t0 := time.Now()
	pool, err := batchPool(seed)
	if err != nil {
		return nil, nil, err
	}
	c, err := startCluster(tr)
	if err != nil {
		return nil, nil, err
	}
	plan, err := planSessions(c, seed)
	if err != nil {
		c.close()
		return nil, nil, err
	}
	t1 := time.Now()
	var clients []*serveClient
	for _, sessions := range plan {
		cl := &serveClient{sessions: sessions, pool: pool, tr: tr,
			http: &server.Client{BaseURL: c.url, HTTP: &http.Client{Timeout: 2 * time.Minute}}}
		for _, s := range sessions {
			if _, err := cl.http.CreateSession(createRequest(s.id, s.genSeed)); err != nil {
				c.close()
				return nil, nil, fmt.Errorf("create %s: %w", s.id, err)
			}
		}
		clients = append(clients, cl)
	}
	t2 := time.Now()
	for _, cl := range clients {
		for _, s := range cl.sessions {
			_, err := cl.appendBatch(s, false)
			rep.Attempted++
			rep.check(err)
			s.seed++
			_, _, err = cl.mine(s, s.seed, nil, false)
			rep.Attempted++
			rep.check(err)
			cl.misses = nil
		}
	}
	rep.Layers["setup.generate_s"] = t1.Sub(t0).Seconds()
	rep.Layers["setup.prepare_s"] = t2.Sub(t1).Seconds()
	rep.Layers["setup.warmup_s"] = time.Since(t2).Seconds()
	return c, clients, nil
}

func runServeAppend(cfg config) (*report, error) {
	rep := &report{TailQ: serveTailQ, Layers: map[string]float64{}}
	var tr *tracer
	if cfg.trace {
		tr = &tracer{}
	}
	start := time.Now()
	c, clients, err := serveSetup(cfg.seed, tr, rep)
	if err != nil {
		return nil, err
	}
	defer c.close()
	rep.SetupS = time.Since(start).Seconds()

	// The timed window: each client runs whole cycles until it has elapsed
	// and serveMinCycles are done; the traced run's per-layer metrics cover
	// those first cycles.
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	start = time.Now()
	deadline := start.Add(cfg.seconds)
	var wg sync.WaitGroup
	for _, cl := range clients {
		wg.Add(1)
		go func(cl *serveClient) {
			defer wg.Done()
			for n := 0; n < serveMinCycles || time.Now().Before(deadline); n++ {
				cl.cycle(cfg.trace && n < serveMinCycles)
			}
		}(cl)
	}
	wg.Wait()
	runtime.ReadMemStats(&mem1)

	var hits, misses []float64
	var borrows int64
	var tot queryTotals
	var pre prefixCounts
	for _, cl := range clients {
		rep.Attempted += cl.attempted
		rep.Ops += cl.attempted
		for _, err := range cl.failures {
			rep.fail("%v", err)
		}
		rep.Reads = append(rep.Reads, cl.reads...)
		rep.Writes = append(rep.Writes, cl.writes...)
		hits = append(hits, cl.hits...)
		misses = append(misses, cl.misses...)
		borrows += cl.borrows
		rep.WindowS = max(rep.WindowS, cl.last.Sub(start).Seconds())
		tot.merge(cl.tot)
		pre.add(cl.pre)
	}
	rep.check(checkModes(hits, misses, 0.5, serveTailQ))

	// Final state: every acknowledged append is in the epoch and the rows,
	// and both shards host sessions.
	cl := &server.Client{BaseURL: c.url, HTTP: &http.Client{Timeout: time.Minute}}
	for _, client := range clients {
		for _, s := range client.sessions {
			info, err := cl.GetSession(s.id)
			rep.Attempted++
			want := serveRows + s.appends*serveBatchRows
			switch {
			case err != nil:
				rep.fail("get %s: %v", s.id, err)
			case info.Stats == nil || info.Stats.Epoch != int64(s.appends) || info.Rows != want:
				rep.fail("session %s: rows %d, stats %+v; want epoch %d and rows %d", s.id, info.Rows, info.Stats, s.appends, want)
			}
		}
	}
	var shards router.ShardsResponse
	rep.Attempted++
	if err := cl.Do("GET", "/v1/shards", nil, &shards); err != nil {
		rep.fail("shards: %v", err)
	}
	for _, sh := range shards.Shards {
		if sh.Sessions == 0 {
			rep.fail("shard %s hosts no session", sh.ID)
		}
	}
	income, err := sirum.Generate("income", serveRows, clients[0].sessions[0].genSeed)
	if err != nil {
		return nil, err
	}
	domains, err := domainSizes(income)
	if err != nil {
		return nil, err
	}
	_, packs := rule.NewPacker(domains)
	if !packs {
		rep.fail("serve-append: income schema does not pack into 64 bits")
	}
	if borrows == 0 {
		rep.fail("serve-append: no miss borrowed a scratch table; the packed cube path did not run")
	}
	rep.Cond = map[string]any{
		"rows": serveRows, "dims": len(domains), "key_bits": keyBits(domains), "packs": packs,
		"clients": serveClients, "shards": serveShards, "sessions": serveClients * serveShards,
		"batch_rows": serveBatchRows, "flush_policy": "none", "min_cycles": serveMinCycles,
		"hits": len(hits), "misses": len(misses),
	}

	if cfg.trace {
		spans := tr.spans
		nest(spans)
		agg := aggregate(spans)
		tot.into(rep.Layers)
		memInto(rep.Layers, &mem0, &mem1, rep.Ops)
		rep.Layers["client.miss_ms"] = agg[layerKey{"client", "miss"}].meanMS()
		rep.Layers["client.transport_ms"] = agg[layerKey{"client", "miss"}].meanSelfMS()
		rep.Layers["router.hop_ms"] = agg[layerKey{"router", "miss"}].meanSelfMS()
		rep.Layers["server.self_ms"] = agg[layerKey{"shard", "miss"}].meanSelfMS()
		rep.Layers["server.hit_ms"] = agg[layerKey{"shard", "hit"}].meanMS()
		rep.Layers["append.ms"] = agg[layerKey{"shard", "append"}].meanMS()
		rep.Layers["append.remine_ratio"] = float64(pre.remined) / float64(pre.appends)
		rep.Layers["server.cache_hit_ratio"] = float64(pre.hits) / float64(pre.reads)
		rep.Layers["server.response_bytes"] = float64(pre.bytes) / float64(pre.reads)
		rep.Layers["trace.ops"] = float64(pre.ops)
	}
	return rep, nil
}
