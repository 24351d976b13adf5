package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/tls"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"

	"sealedbottle/internal/auth"
	"sealedbottle/internal/broker"
	"sealedbottle/internal/broker/transport"
	"sealedbottle/internal/broker/wal"
	"sealedbottle/internal/client"
	"sealedbottle/internal/obs"
	"sealedbottle/internal/replica"
)

// security is one set-up's transport material: a throwaway CA, one leaf for
// 127.0.0.1 that racks and clients both present, and a token-signing key.
type security struct {
	serverTLS *tls.Config
	clientTLS *tls.Config
	authKey   []byte
}

// newSecurity mints the material. With mutual set, racks demand client
// certificates, as a replicated TLS deployment of cmd/bottlerack does.
func newSecurity(mutual bool) (*security, error) {
	now := time.Now()
	ca, err := auth.NewCA("perfbench-ca", now)
	if err != nil {
		return nil, fmt.Errorf("minting CA: %w", err)
	}
	certPEM, keyPEM, err := ca.Issue("perfbench", []string{"127.0.0.1"}, now)
	if err != nil {
		return nil, fmt.Errorf("issuing leaf: %w", err)
	}
	var clientCA []byte
	if mutual {
		clientCA = ca.CertPEM
	}
	s := &security{}
	if s.serverTLS, err = auth.ServerTLS(certPEM, keyPEM, clientCA); err != nil {
		return nil, err
	}
	if s.clientTLS, err = auth.ClientTLS(ca.CertPEM, certPEM, keyPEM); err != nil {
		return nil, err
	}
	if s.authKey, err = auth.NewKey(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *security) token(identity string, ops auth.Ops) ([]byte, error) {
	return auth.Mint(s.authKey, auth.Token{Identity: identity, Ops: ops})
}

// rackServer is one durable rack served over loopback TCP with TLS and
// capability tokens, with the per-opcode server metrics a production rack
// registers.
type rackServer struct {
	name string
	addr string
	rack *broker.Rack
	node *replica.Node // nil unless replicated
	srv  *transport.Server
	ln   net.Listener
	reg  *obs.Registry
	done chan struct{}
}

// rackSpec describes one rack to start.
type rackSpec struct {
	name    string
	tag     string
	dir     string
	ln      net.Listener
	sec     *security
	peers   map[string]string // replica peer table; nil: not replicated
	peerTok []byte
}

// startRack opens the durable rack (fsync=interval, the production default)
// and serves it on the spec's listener.
func startRack(s rackSpec) (*rackServer, error) {
	rack, err := broker.Open(broker.Config{
		RackTag: s.tag,
		Durability: &broker.DurabilityConfig{
			Dir:           s.dir,
			Fsync:         wal.PolicyInterval,
			SnapshotEvery: 5 * time.Minute,
		},
	})
	if err != nil {
		return nil, fmt.Errorf("opening rack %s: %w", s.name, err)
	}
	r := &rackServer{name: s.name, addr: s.ln.Addr().String(), rack: rack, ln: s.ln, reg: obs.NewRegistry(), done: make(chan struct{})}
	opts := transport.ServerOptions{
		TLS:     s.sec.serverTLS,
		AuthKey: s.sec.authKey,
		Metrics: transport.NewServerMetrics(r.reg),
	}
	if s.peers != nil {
		r.node = replica.Wrap(rack, replica.Config{Self: s.name, Peers: s.peers, Token: s.peerTok, TLS: s.sec.clientTLS})
		opts.Replica = r.node
	}
	r.srv = transport.NewServer(rack, opts)
	go func() {
		defer close(r.done)
		// Serve returns nil once close shuts the listener; an earlier
		// failure leaves the rack unreachable, and every op after it fails
		// its checks.
		_ = r.srv.Serve(s.ln)
	}()
	return r, nil
}

// close stops the server, waits for its accept loop and closes the rack.
func (r *rackServer) close() {
	r.ln.Close()
	r.srv.Close()
	<-r.done
	if r.node != nil {
		r.node.Close()
	} else {
		r.rack.Close()
	}
}

// dialCourier dials one rack as the given token identity with a single
// multiplexed connection.
func dialCourier(addr string, sec *security, tok []byte, m *transport.ClientMetrics) (*client.Courier, error) {
	return client.Dial(client.Config{Addr: addr, Conns: 1, TLS: sec.clientTLS, Token: tok, Metrics: m})
}

// handshake times a fresh courier's first call (TCP connect, TLS handshake
// and the token HELLO the server verifies) against a second call on the
// established connection; the difference is the auth layer's per-connection
// cost.
func handshake(ctx context.Context, c *client.Courier) (time.Duration, error) {
	t0 := time.Now()
	if _, err := c.Stats(ctx); err != nil {
		return 0, err
	}
	first := time.Since(t0)
	t1 := time.Now()
	if _, err := c.Stats(ctx); err != nil {
		return 0, err
	}
	return max(first-time.Since(t1), 0), nil
}

// opCounters is a snapshot of a server's per-opcode metrics.
type opCounters map[string]*opCount

type opCount struct {
	calls    float64
	seconds  float64
	bytesIn  float64
	bytesOut float64
}

// scrape reads the per-opcode series from the registry's Prometheus text
// exposition, exactly what a /metrics scrape of the rack would return.
func scrape(reg *obs.Registry) (opCounters, error) {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	out := opCounters{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, ok := strings.Cut(line, `{op="`)
		if !ok {
			continue
		}
		op, rest, ok := strings.Cut(rest, `"}`)
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			continue
		}
		c := out[op]
		if c == nil {
			c = &opCount{}
			out[op] = c
		}
		switch name {
		case "sealedbottle_op_latency_seconds_count":
			c.calls = v
		case "sealedbottle_op_latency_seconds_sum":
			c.seconds = v
		case "sealedbottle_op_request_bytes_total":
			c.bytesIn = v
		case "sealedbottle_op_response_bytes_total":
			c.bytesOut = v
		}
	}
	return out, sc.Err()
}

// add folds another server's counters into c.
func (c opCounters) add(o opCounters) {
	for op, v := range o {
		d := c[op]
		if d == nil {
			d = &opCount{}
			c[op] = d
		}
		d.calls += v.calls
		d.seconds += v.seconds
		d.bytesIn += v.bytesIn
		d.bytesOut += v.bytesOut
	}
}

// timedBackend decorates a broker.Backend with one span per call. The
// sweeper, the initiator's courier and each ring member go through one, so
// the client-side time of every RPC is measured from outside the client
// package; with tracing off it only forwards.
type timedBackend struct {
	broker.Backend
	run    *runState
	prefix string
	// seen is the seen-window size of the last sweep query, the sweeper's
	// only externally visible trace of its window.
	seen int
	// queryIDs accumulates seen-window entries shipped across sweeps.
	sweeps, queryIDs int
}

// runState is the tracer slot the decorators read: the driver swaps a tracer
// in for the traced phase.
type runState struct{ tr *tracer }

// start opens the span of one call; the name is only built while tracing,
// so untraced calls cost no allocation.
func (b *timedBackend) start(ctx context.Context, op string) (context.Context, span) {
	if b.run.tr == nil {
		return ctx, span{}
	}
	return b.run.tr.start(ctx, b.prefix+op)
}

func (b *timedBackend) Submit(ctx context.Context, raw []byte) (string, error) {
	ctx, s := b.start(ctx, "submit")
	defer s.end()
	return b.Backend.Submit(ctx, raw)
}

func (b *timedBackend) SubmitBatch(ctx context.Context, raws [][]byte) ([]broker.SubmitResult, error) {
	ctx, s := b.start(ctx, "submit_batch")
	defer s.end()
	return b.Backend.SubmitBatch(ctx, raws)
}

func (b *timedBackend) Sweep(ctx context.Context, q broker.SweepQuery) (broker.SweepResult, error) {
	b.seen = len(q.Seen)
	b.sweeps++
	b.queryIDs += len(q.Seen)
	ctx, s := b.start(ctx, "sweep")
	defer s.end()
	return b.Backend.Sweep(ctx, q)
}

func (b *timedBackend) Reply(ctx context.Context, id string, raw []byte) error {
	ctx, s := b.start(ctx, "reply")
	defer s.end()
	return b.Backend.Reply(ctx, id, raw)
}

func (b *timedBackend) ReplyBatch(ctx context.Context, posts []broker.ReplyPost) ([]error, error) {
	ctx, s := b.start(ctx, "reply_batch")
	defer s.end()
	return b.Backend.ReplyBatch(ctx, posts)
}

func (b *timedBackend) Fetch(ctx context.Context, id string) ([][]byte, error) {
	ctx, s := b.start(ctx, "fetch")
	defer s.end()
	return b.Backend.Fetch(ctx, id)
}

func (b *timedBackend) FetchBatch(ctx context.Context, ids []string) ([]broker.FetchResult, error) {
	ctx, s := b.start(ctx, "fetch_batch")
	defer s.end()
	return b.Backend.FetchBatch(ctx, ids)
}

func (b *timedBackend) Remove(ctx context.Context, id string) (bool, error) {
	ctx, s := b.start(ctx, "remove")
	defer s.end()
	return b.Backend.Remove(ctx, id)
}

// hintingBackend is a timedBackend over a courier that also forwards hint
// queueing, so a ring at R>1 can still relay handoff through the decorator.
type hintingBackend struct {
	*timedBackend
	c *client.Courier
}

func (b hintingBackend) Hint(ctx context.Context, dest string, recs []broker.HandoffRecord) (int, error) {
	ctx, s := b.start(ctx, "hint")
	defer s.end()
	return b.c.Hint(ctx, dest, recs)
}
