package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"time"

	"sealedbottle/internal/auth"
	"sealedbottle/internal/broker"
	"sealedbottle/internal/broker/transport"
	"sealedbottle/internal/client"
	"sealedbottle/internal/core"
	"sealedbottle/internal/obs"
)

// ingest is the replicated write path with the crypto moved into set-up: a
// Ring at R=2 over three durable, replica-wrapped racks on loopback TCP with
// mutual TLS and tokens. One op is one batch: SubmitBatch, a ReplyBatch with
// one reply per bottle, a FetchBatch that drains them and a Remove per bottle,
// so the held population stays constant. Its items are bottles.
type ingest struct {
	o   options
	run runState

	racks    []*rackServer
	couriers []*client.Courier
	ring     *client.Ring

	pool      []batch // pre-sealed batches, cycled
	next      int
	dig       *digest
	handshake time.Duration
	failures  failureLog
}

// batch is one op's pre-sealed bottles and the replies posted to them,
// index for index.
type batch struct {
	raws, replies [][]byte
}

const (
	ingestRacks       = 3
	ingestReplication = 2
	ingestIdentity    = "ingest"
)

func newIngest(o options) workload { return &ingest{o: o, dig: newDigest()} }

func (g *ingest) setup(ctx context.Context) error {
	seed, sz := g.o.seed, g.o.size
	c := newCorpus(seed, sz.users)
	rng, sealRand, ackRand := chooser(seed, "ingest"), stream(seed, "ingest-seal"), stream(seed, "ingest-acks")
	bottle := func() (raw, reply []byte, err error) {
		u := c.pick(rng)
		s := newSpec(rng, u.Tags, c.popular)
		pkg, err := seal(s, u.ID, sealRand)
		if err != nil {
			return nil, nil, err
		}
		if raw, err = pkg.Marshal(); err != nil {
			return nil, nil, err
		}
		// A reply of a real acknowledgement's size; its bytes only have to
		// drain back unchanged.
		ack := make([]byte, 64)
		if _, err := io.ReadFull(ackRand, ack); err != nil {
			return nil, nil, err
		}
		rep := &core.Reply{RequestID: pkg.ID, From: "replier", SentAt: time.Now().UTC(), Acks: [][]byte{ack}}
		g.dig.spec(s)
		g.dig.str(pkg.ID)
		g.dig.str(string(ack))
		return raw, rep.Marshal(), nil
	}
	g.pool = make([]batch, sz.pool)
	for i := range g.pool {
		for j := 0; j < sz.batch; j++ {
			raw, reply, err := bottle()
			if err != nil {
				return err
			}
			g.pool[i].raws = append(g.pool[i].raws, raw)
			g.pool[i].replies = append(g.pool[i].replies, reply)
		}
	}
	background := make([][]byte, sz.background)
	for i := range background {
		raw, _, err := bottle()
		if err != nil {
			return err
		}
		background[i] = raw
	}

	if err := g.startCluster(ctx); err != nil {
		return err
	}
	if err := submitAll(ctx, g.ring, background); err != nil {
		return fmt.Errorf("racking background: %w", err)
	}
	for i := 0; i < max(sz.warmup/sz.batch, 1)*len(g.pool); i++ {
		if _, failed := g.op(ctx, nil); failed > 0 {
			return fmt.Errorf("warm-up batch failed: %w", g.failures.first)
		}
	}
	return nil
}

// startCluster starts the three racks, each knowing the others as replica
// peers, and the ring over them.
func (g *ingest) startCluster(ctx context.Context) error {
	sec, err := newSecurity(true)
	if err != nil {
		return err
	}
	lns := make([]net.Listener, ingestRacks)
	peers := map[string]string{}
	for i := range lns {
		if lns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return err
		}
		peers[rackName(i)] = lns[i].Addr().String()
	}
	for i, ln := range lns {
		name := rackName(i)
		tok, err := sec.token("rack:"+name, auth.OpReplica|auth.OpAdmin)
		if err == nil {
			var rs *rackServer
			rs, err = startRack(rackSpec{
				name: name, tag: fmt.Sprint("r", i), dir: filepath.Join(g.o.workDir, name),
				ln: ln, sec: sec, peers: peers, peerTok: tok,
			})
			if err == nil {
				g.racks = append(g.racks, rs)
			}
		}
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			return err
		}
	}
	tok, err := sec.token(ingestIdentity, auth.OpsAll)
	if err != nil {
		return err
	}
	clientReg := obs.NewRegistry()
	cm := transport.NewClientMetrics(clientReg)
	var members []client.RingBackend
	for i, rs := range g.racks {
		c, err := dialCourier(rs.addr, sec, tok, cm)
		if err != nil {
			return err
		}
		g.couriers = append(g.couriers, c)
		d, err := handshake(ctx, c)
		if err != nil {
			return err
		}
		if i == 0 {
			g.handshake = d
		}
		tb := &timedBackend{Backend: c, run: &g.run, prefix: "rack."}
		members = append(members, client.RingBackend{Name: rs.name, Backend: hintingBackend{timedBackend: tb, c: c}})
	}
	g.ring, err = client.NewRing(client.RingConfig{Backends: members, Replication: ingestReplication})
	if err != nil {
		return err
	}
	g.ring.RegisterMetrics(clientReg)
	return nil
}

func rackName(i int) string { return fmt.Sprint("rack-", i) }

func (g *ingest) op(ctx context.Context, tr *tracer) (int, int) {
	g.run.tr = tr
	cycle := g.next%len(g.pool) == 0
	b := g.pool[g.next%len(g.pool)]
	g.next++
	ctx, root := tr.op(ctx)
	defer root.end()
	if cycle {
		g.reap(ctx, tr)
	}
	failed, err := g.ingestBatch(ctx, tr, b)
	if err != nil {
		g.failures.add(err)
	}
	return len(b.raws), failed
}

// reap compacts every rack once per pass over the pool. A removed bottle
// stays in its shard's prime group until a sweep or reap compacts it, and
// this workload never sweeps; left to the racks' 5-second reaper, the memory
// held would grow with throughput. Reaping per pass ties it to the work done,
// and the op pays for it.
func (g *ingest) reap(ctx context.Context, tr *tracer) {
	_, sp := tr.start(ctx, "broker.reap")
	defer sp.end()
	for _, rs := range g.racks {
		rs.rack.Reap()
	}
}

// ingestBatch runs one batch and returns how many of its bottles failed a
// check: refused, not acknowledged, a reply that did not drain back exactly
// once and unchanged, or a bottle not held at removal.
func (g *ingest) ingestBatch(ctx context.Context, tr *tracer, b batch) (int, error) {
	n := len(b.raws)
	bad := make([]bool, n)
	var firstErr error
	fail := func(i int, err error) {
		bad[i] = true
		if firstErr == nil {
			firstErr = err
		}
	}
	sctx, sp := tr.start(ctx, "client.ring_submit_batch")
	subs, err := g.ring.SubmitBatch(sctx, b.raws)
	sp.end()
	if err != nil {
		return n, fmt.Errorf("submit batch: %w", err)
	}
	ids := make([]string, n)
	posts := make([]broker.ReplyPost, 0, n)
	for i, r := range subs {
		if r.Err != nil {
			fail(i, fmt.Errorf("submit: %w", r.Err))
			continue
		}
		ids[i] = r.ID
		posts = append(posts, broker.ReplyPost{RequestID: r.ID, Raw: b.replies[i]})
	}
	rctx, sp := tr.start(ctx, "client.ring_reply_batch")
	errs, err := g.ring.ReplyBatch(rctx, posts)
	sp.end()
	if err != nil {
		firstErr = fmt.Errorf("reply batch: %w", err)
		errs = make([]error, len(posts))
		for i := range errs {
			errs[i] = err
		}
	}
	k := 0
	for i := range ids {
		if ids[i] == "" {
			continue
		}
		if errs[k] != nil {
			fail(i, fmt.Errorf("reply: %w", errs[k]))
		}
		k++
	}
	live := make([]string, 0, n)
	idx := make([]int, 0, n)
	for i, id := range ids {
		if id != "" {
			live = append(live, id)
			idx = append(idx, i)
		}
	}
	fctx, sp := tr.start(ctx, "client.ring_fetch_batch")
	fetched, err := g.ring.FetchBatch(fctx, live)
	sp.end()
	if err != nil {
		return n, fmt.Errorf("fetch batch: %w", err)
	}
	for j, fr := range fetched {
		i := idx[j]
		if bad[i] {
			continue
		}
		switch {
		case fr.Err != nil:
			fail(i, fmt.Errorf("fetch: %w", fr.Err))
		case len(fr.Replies) != 1:
			fail(i, fmt.Errorf("fetch: %d replies drained, want 1", len(fr.Replies)))
		case !bytes.Equal(g.tampered(fr.Replies[0]), b.replies[i]):
			fail(i, errors.New("fetch: drained reply differs from the one posted"))
		}
	}
	for j, id := range live {
		dctx, sp := tr.start(ctx, "client.ring_remove")
		held, err := g.ring.Remove(dctx, id)
		sp.end()
		switch {
		case err != nil:
			fail(idx[j], fmt.Errorf("remove: %w", err))
		case !held:
			fail(idx[j], errors.New("remove: bottle was not held"))
		}
	}
	failed := 0
	for _, b := range bad {
		if b {
			failed++
		}
	}
	return failed, firstErr
}

func (g *ingest) tampered(raw []byte) []byte {
	if g.o.tamper == nil {
		return raw
	}
	return g.o.tamper(append([]byte(nil), raw...))
}

func (g *ingest) inputs() [32]byte { return g.dig.sum() }

func (g *ingest) probe(ctx context.Context) (probe, error) {
	p := probe{server: opCounters{}, handshake: g.handshake}
	for _, rs := range g.racks {
		st, err := rs.rack.Stats(ctx)
		if err != nil {
			return p, err
		}
		srv, err := scrape(rs.reg)
		if err != nil {
			return p, err
		}
		p.held += st.Held
		p.walBytes += float64(st.WALBytes)
		p.server.add(srv)
		rep := rs.node.ReplicaStats()
		p.hintsQueued += float64(rep.HintsQueued)
		p.handoffApplied += float64(rep.HandoffApplied)
	}
	return p, nil
}

func (g *ingest) close() {
	if g.ring != nil {
		g.ring.Close()
	}
	for _, c := range g.couriers {
		c.Close()
	}
	for _, rs := range g.racks {
		rs.close()
	}
	g.failures.report("replicated-ingest")
}
