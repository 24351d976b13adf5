package main

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"time"

	"sealedbottle/internal/attr"
	"sealedbottle/internal/auth"
	"sealedbottle/internal/broker"
	"sealedbottle/internal/broker/transport"
	"sealedbottle/internal/client"
	"sealedbottle/internal/core"
	"sealedbottle/internal/crypt"
	"sealedbottle/internal/obs"
)

// friending is the production path: one initiator and one long-lived
// participant Sweeper share a durable rack behind a Server on loopback TCP
// with TLS and capability tokens. One op is one whole friending: seal,
// Submit, Tick, Fetch, ProcessReply, Remove.
type friending struct {
	o   options
	run runState

	rs           *rackServer
	initC, partC *client.Courier
	initB, partB *timedBackend
	sweeper      *client.Sweeper
	initRand     io.Reader

	specs []rawSpec
	next  int
	dig   *digest

	// wantID is the bottle the current op submitted; the sweeper's OnResult
	// hook stores the participant's verdict on it.
	wantID    string
	matched   bool
	partKey   crypt.Key
	handshake time.Duration
	failures  failureLog
}

func newFriending(o options) workload { return &friending{o: o, dig: newDigest()} }

// Identities of the two token holders.
const (
	initiatorID   = "initiator"
	participantID = "participant"
)

// participantTags is the size of the friending participant's profile. It is
// fixed, not drawn, because a participant's per-request work grows with its
// profile, and the seed should change which inputs a run uses, not how much
// work they are.
const participantTags = 8

// participantProfile picks the seeded participant: a user with
// participantTags tags, one of whose residues no other of its tags shares, so
// that windowFiller can build its request.
func participantProfile(c *corpus, seed int64) ([]string, *attr.Profile, error) {
	rng := chooser(seed, "participant")
	for range 1000 {
		u, err := c.pickWithTags(rng, participantTags)
		if err != nil {
			return nil, nil, err
		}
		own := map[uint32]int{}
		for _, t := range u.Tags {
			own[remainder(t)]++
		}
		for _, n := range own {
			if n == 1 {
				return u.Tags, u.TagProfile(), nil
			}
		}
	}
	return nil, nil, errors.New("no participant with a residue of its own")
}

// newParticipant builds a long-lived participant. Collision skips are on so
// its verdicts agree exactly with RequestSpec.Matches, and the per-origin
// reply rate limit is one nanosecond because one initiator sends a request
// every few milliseconds.
func newParticipant(id string, p *attr.Profile, rand io.Reader) (*core.Participant, error) {
	return core.NewParticipant(p, core.ParticipantConfig{
		ID:               id,
		Matcher:          core.MatcherConfig{AllowCollisionSkip: true},
		MinReplyInterval: time.Nanosecond,
		Rand:             rand,
	})
}

func (f *friending) setup(ctx context.Context) error {
	seed, sz := f.o.seed, f.o.size
	c := newCorpus(seed, sz.users)
	tags, profile, err := participantProfile(c, seed)
	if err != nil {
		return err
	}
	f.dig.profile(profile)
	part, err := newParticipant(participantID, profile, stream(seed, "participant"))
	if err != nil {
		return err
	}
	residues := part.Matcher().ResidueSet(core.DefaultPrime)

	rng := chooser(seed, "specs")
	for i := 0; i < sz.specs; i++ {
		s := newSpec(rng, tags, c.popular)
		f.specs = append(f.specs, s)
		f.dig.spec(s)
	}
	f.initRand = stream(seed, "initiator")

	// The background population: bottles of other users that the
	// participant's residue prefilter rejects, so every sweep scans them all
	// and returns only the op's own bottle. A request whose necessary tag
	// hashes outside the participant's residues is rejected whatever its
	// other tags are; drawing only such requests keeps the sealing work of
	// set-up the same for every seed.
	var background [][]byte
	rng, sealRand := chooser(seed, "background"), stream(seed, "background-seal")
	for len(background) < sz.background {
		u := c.pick(rng)
		s := newSpec(rng, u.Tags, c.popular)
		if residues.Contains(remainder(s.necessary[0])) {
			continue
		}
		pkg, err := seal(s, u.ID, sealRand)
		if err != nil {
			return err
		}
		if pkg.PrefilterMatch(residues) {
			return fmt.Errorf("background bottle %s passes the participant's prefilter", pkg.ID)
		}
		raw, err := pkg.Marshal()
		if err != nil {
			return err
		}
		f.dig.spec(s)
		f.dig.str(pkg.ID)
		background = append(background, raw)
	}

	// The seen-window filler: copies, under fresh IDs, of one request that
	// passes the prefilter but does not match. Sweeping them fills the
	// window; removing them afterwards restores the background population.
	fill, err := windowFiller(c, seed, tags, sz.seenCap, f.dig)
	if err != nil {
		return err
	}

	if err := f.startStack(ctx, part); err != nil {
		return err
	}
	if err := submitAll(ctx, f.initB, background); err != nil {
		return fmt.Errorf("racking background: %w", err)
	}
	if err := submitAll(ctx, f.initB, fill); err != nil {
		return fmt.Errorf("racking window filler: %w", err)
	}
	for {
		st, err := f.sweeper.Tick(ctx)
		if err != nil {
			return fmt.Errorf("filling seen window: %w", err)
		}
		if st.Swept == 0 {
			break
		}
	}
	owner := broker.WithIdentity(ctx, initiatorID)
	for _, raw := range fill {
		pkg, err := core.UnmarshalPackageView(raw)
		if err != nil {
			return err
		}
		if _, err := f.rs.rack.Remove(owner, pkg.ID); err != nil {
			return err
		}
	}
	for i := 0; i < sz.warmup; i++ {
		if _, failed := f.op(ctx, nil); failed > 0 {
			return fmt.Errorf("warm-up friending failed: %w", f.failures.first)
		}
	}
	if f.partB.seen != sz.seenCap {
		return fmt.Errorf("seen window holds %d IDs after set-up, want %d", f.partB.seen, sz.seenCap)
	}
	return nil
}

// startStack opens the durable rack, serves it over TLS with tokens and
// dials the initiator's and the participant's couriers.
func (f *friending) startStack(ctx context.Context, part *core.Participant) error {
	sec, err := newSecurity(false)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	if f.rs, err = startRack(rackSpec{name: "rack", dir: filepath.Join(f.o.workDir, "rack"), ln: ln, sec: sec}); err != nil {
		ln.Close()
		return err
	}
	clientReg := obs.NewRegistry()
	cm := transport.NewClientMetrics(clientReg)
	for _, d := range []struct {
		id string
		c  **client.Courier
		b  **timedBackend
	}{{initiatorID, &f.initC, &f.initB}, {participantID, &f.partC, &f.partB}} {
		tok, err := sec.token(d.id, auth.OpsClient)
		if err != nil {
			return err
		}
		if *d.c, err = dialCourier(f.rs.addr, sec, tok, cm); err != nil {
			return err
		}
		*d.b = &timedBackend{Backend: *d.c, run: &f.run, prefix: "client."}
	}
	if f.handshake, err = handshake(ctx, f.initC); err != nil {
		return err
	}
	if _, err := handshake(ctx, f.partC); err != nil {
		return err
	}
	f.sweeper, err = client.NewSweeper(f.partB, client.SweeperConfig{
		Participant: part,
		SeenCap:     f.o.size.seenCap,
		Metrics:     client.NewSweeperMetrics(clientReg),
		OnResult: func(pkg *core.RequestPackage, res *core.HandleResult) {
			if pkg.ID == f.wantID {
				f.matched, f.partKey = res.Matched, res.ChannelKey
			}
		},
	})
	return err
}

// remainder is a tag's residue at the default prime, as a request carries it.
func remainder(tag string) uint32 {
	a := attr.MustNew(attr.HeaderTag, tag)
	return crypt.HashAttribute(a.Canonical()).Mod(core.DefaultPrime)
}

// seal builds a verifiable request for an initiator; background and pooled
// bottles live for a day so none expires during a run.
func seal(s rawSpec, origin string, rand io.Reader) (*core.RequestPackage, error) {
	spec, err := s.build()
	if err != nil {
		return nil, err
	}
	built, err := core.BuildRequest(spec, core.BuildOptions{Origin: origin, Rand: rand, Validity: 24 * time.Hour})
	if err != nil {
		return nil, err
	}
	return built.Package, nil
}

// windowFiller returns n copies, each under its own seeded ID, of a request
// that passes the participant's prefilter without matching it. It is built
// from tags the participant lacks: four whose remainder exactly one of the
// participant's tags shares, and one whose remainder none shares. Every
// position then has at most one candidate, so filling the window costs every
// seed about the same.
func windowFiller(c *corpus, seed int64, tags []string, n int, dig *digest) ([][]byte, error) {
	own, owned := map[uint32]int{}, map[string]bool{}
	for _, t := range tags {
		own[remainder(t)]++
		owned[t] = true
	}
	rng := chooser(seed, "filler")
	var hit, miss []string
	for len(hit) < minTags || len(miss) < 1 {
		u := c.pick(rng)
		t := u.Tags[rng.IntN(len(u.Tags))]
		if owned[t] {
			continue
		}
		owned[t] = true
		switch own[remainder(t)] {
		case 0:
			if len(miss) < 1 {
				miss = append(miss, t)
			}
		case 1:
			if len(hit) < minTags {
				hit = append(hit, t)
			}
		}
	}
	s := rawSpec{necessary: hit[:specNecessary], optional: append(hit[specNecessary:], miss...), minOptional: specOwnedOpt}
	dig.spec(s)
	pkg, err := seal(s, "filler", stream(seed, "filler-seal"))
	if err != nil {
		return nil, err
	}
	ids := stream(seed, "filler-ids")
	out := make([][]byte, n)
	var id [16]byte
	for i := range out {
		if _, err := io.ReadFull(ids, id[:]); err != nil {
			return nil, err
		}
		pkg.ID = hex.EncodeToString(id[:])
		dig.str(pkg.ID)
		raw, err := pkg.Marshal()
		if err != nil {
			return nil, err
		}
		out[i] = raw
	}
	return out, nil
}

// submitAll racks raws in batches and fails on any per-item error.
func submitAll(ctx context.Context, b broker.Backend, raws [][]byte) error {
	const chunk = 256
	for i := 0; i < len(raws); i += chunk {
		res, err := b.SubmitBatch(ctx, raws[i:min(i+chunk, len(raws))])
		if err != nil {
			return err
		}
		for _, r := range res {
			if r.Err != nil {
				return r.Err
			}
		}
	}
	return nil
}

func (f *friending) op(ctx context.Context, tr *tracer) (int, int) {
	f.run.tr = tr
	ctx, root := tr.op(ctx)
	defer root.end()
	if err := f.friend(ctx, tr); err != nil {
		f.failures.add(err)
		return 1, 1
	}
	return 1, 0
}

// friend runs one friending and checks that the initiator derived the same
// channel key as the participant.
func (f *friending) friend(ctx context.Context, tr *tracer) error {
	s := f.specs[f.next%len(f.specs)]
	f.next++
	_, sp := tr.start(ctx, "attr.profile")
	spec, err := s.build()
	sp.end()
	if err != nil {
		return err
	}
	_, sp = tr.start(ctx, "core.seal")
	ini, err := core.NewInitiator(spec, core.InitiatorConfig{Protocol: core.Protocol1, Origin: initiatorID, Rand: f.initRand})
	var raw []byte
	if err == nil {
		raw, err = ini.Request().Marshal()
	}
	sp.end()
	if err != nil {
		return err
	}
	id, err := f.initB.Submit(ctx, raw)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	// The bottle is held from here on; it is removed whatever happens, so a
	// failed op leaves the population as it found it.
	rerr := f.rendezvous(ctx, tr, ini, id)
	held, err := f.initB.Remove(ctx, id)
	switch {
	case rerr != nil:
		return rerr
	case err != nil:
		return fmt.Errorf("remove: %w", err)
	case !held:
		return errors.New("remove: bottle was not held")
	}
	return nil
}

func (f *friending) rendezvous(ctx context.Context, tr *tracer, ini *core.Initiator, id string) error {
	f.wantID, f.matched = broker.UntagID(id), false
	tctx, sp := tr.start(ctx, "core.evaluate")
	st, err := f.sweeper.Tick(tctx)
	sp.end()
	if err != nil {
		return fmt.Errorf("tick: %w", err)
	}
	if !f.matched || st.Replies != 1 {
		return fmt.Errorf("tick: participant matched=%v and posted %d replies, want a match and 1", f.matched, st.Replies)
	}
	raws, err := f.initB.Fetch(ctx, id)
	if err != nil {
		return fmt.Errorf("fetch: %w", err)
	}
	if len(raws) != 1 {
		return fmt.Errorf("fetch: %d replies, want 1", len(raws))
	}
	_, sp = tr.start(ctx, "core.verify")
	m, err := verifyReply(ini, raws[0], f.o.tamper)
	sp.end()
	if err != nil {
		return err
	}
	if m.ChannelKey != f.partKey {
		return errors.New("initiator and participant derived different channel keys")
	}
	return nil
}

// verifyReply runs the initiator's reply processing and demands a match.
func verifyReply(ini *core.Initiator, raw []byte, tamper func([]byte) []byte) (*core.Match, error) {
	if tamper != nil {
		raw = tamper(append([]byte(nil), raw...))
	}
	rep, err := core.UnmarshalReply(raw)
	if err != nil {
		return nil, fmt.Errorf("reply: %w", err)
	}
	m, reason, err := ini.ProcessReply(rep)
	if err != nil {
		return nil, err
	}
	if m == nil {
		return nil, fmt.Errorf("reply rejected: %s", reason)
	}
	return m, nil
}

func (f *friending) inputs() [32]byte { return f.dig.sum() }

func (f *friending) probe(ctx context.Context) (probe, error) {
	st, err := f.rs.rack.Stats(ctx)
	if err != nil {
		return probe{}, err
	}
	srv, err := scrape(f.rs.reg)
	if err != nil {
		return probe{}, err
	}
	return probe{
		seen:      f.partB.seen,
		held:      st.Held,
		server:    srv,
		walBytes:  float64(st.WALBytes),
		sweeps:    float64(f.partB.sweeps),
		queryIDs:  float64(f.partB.queryIDs),
		scanned:   float64(st.Totals.Scanned),
		returned:  float64(st.Totals.Returned),
		handshake: f.handshake,
	}, nil
}

func (f *friending) close() {
	for _, c := range []*client.Courier{f.initC, f.partC} {
		if c != nil {
			c.Close()
		}
	}
	if f.rs != nil {
		f.rs.close()
	}
	f.failures.report("friending")
}
