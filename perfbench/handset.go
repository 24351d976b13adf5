package main

import (
	"context"
	"errors"
	"fmt"
	"io"

	"sealedbottle/internal/attr"
	"sealedbottle/internal/core"
)

// handset is the paper's on-device computation with no rack at all: one op is
// one request from a seeded initiator, delivered to a fixed neighbourhood of
// long-lived participants built from corpus profiles. Every participant runs
// HandleRequest, and the initiator verifies every reply.
type handset struct {
	o     options
	hood  []neighbour
	specs []rawSpec
	// matches[i][j] is the plaintext verdict of RequestSpec.Matches for spec
	// i and neighbour j, worked out in set-up so the check costs the timed
	// loop nothing.
	matches  [][]bool
	next     int
	initRand io.Reader
	dig      *digest
	// counts accumulates the participants' Diagnostics over every op.
	counts   probe
	failures failureLog
}

type neighbour struct {
	id      string
	part    *core.Participant
	profile *attr.Profile
}

// participantLifetime is how many requests a neighbourhood handles before
// its participants are rebuilt from the same profiles, as handsets restart.
// A core.Participant remembers every request ID it has handled, so without a
// restart the benchmark's memory would grow with its throughput and a faster
// compute path would read as a peak_rss_mb regression.
const participantLifetime = 4096

func newHandset(o options) workload { return &handset{o: o, dig: newDigest()} }

func (h *handset) setup(ctx context.Context) error {
	seed, sz := h.o.seed, h.o.size
	c := newCorpus(seed, sz.users)
	// Profile sizes are stratified over 4..11 tags, so every seed's
	// neighbourhood does the same amount of work per request.
	rng := chooser(seed, "neighbours")
	taken := map[string]bool{}
	var tags [][]string
	for len(h.hood) < sz.neighbours {
		u, err := c.pickWithTags(rng, minTags+len(h.hood)%8)
		if err != nil {
			return err
		}
		if taken[u.ID] {
			continue
		}
		taken[u.ID] = true
		p := u.TagProfile()
		h.hood = append(h.hood, neighbour{id: u.ID, profile: p})
		tags = append(tags, u.Tags)
		h.dig.profile(p)
	}
	// Each request is drawn for one neighbour, so at least one participant
	// matches it; the others match or become candidates only as far as their
	// profiles overlap.
	rng = chooser(seed, "specs")
	for i := 0; i < sz.specs; i++ {
		s := newSpec(rng, tags[rng.IntN(len(tags))], c.popular)
		spec, err := s.build()
		if err != nil {
			return err
		}
		truth := make([]bool, len(h.hood))
		for j, n := range h.hood {
			truth[j] = spec.Matches(n.profile)
		}
		h.specs = append(h.specs, s)
		h.matches = append(h.matches, truth)
		h.dig.spec(s)
	}
	h.initRand = stream(seed, "initiator")
	// Requests are cheap without a rack, so the warm-up runs eight times as
	// many to give set-up enough work to time steadily.
	for i := 0; i < 8*sz.warmup; i++ {
		if _, failed := h.op(ctx, nil); failed > 0 {
			return fmt.Errorf("warm-up request failed: %w", h.failures.first)
		}
	}
	return nil
}

func (h *handset) op(ctx context.Context, tr *tracer) (int, int) {
	ctx, root := tr.op(ctx)
	defer root.end()
	if err := h.request(ctx, tr); err != nil {
		h.failures.add(err)
		return 1, 1
	}
	return 1, 0
}

// request seals one request, hands it to every neighbour and checks each
// verdict against RequestSpec.Matches on the plaintext profile.
func (h *handset) request(ctx context.Context, tr *tracer) error {
	if h.next%participantLifetime == 0 {
		if err := h.restart(); err != nil {
			return err
		}
	}
	i := h.next % len(h.specs)
	s := h.specs[i]
	h.next++
	_, sp := tr.start(ctx, "attr.profile")
	spec, err := s.build()
	sp.end()
	if err != nil {
		return err
	}
	_, sp = tr.start(ctx, "core.seal")
	ini, err := core.NewInitiator(spec, core.InitiatorConfig{Protocol: core.Protocol1, Origin: initiatorID, Rand: h.initRand})
	var raw []byte
	if err == nil {
		raw, err = ini.Request().Marshal()
	}
	sp.end()
	if err != nil {
		return err
	}
	var wrong error
	for j, n := range h.hood {
		if err := h.deliver(ctx, tr, ini, raw, n.part, h.matches[i][j]); err != nil && wrong == nil {
			wrong = err
		}
	}
	return wrong
}

// restart rebuilds every participant of the neighbourhood.
func (h *handset) restart() error {
	gen := h.next / participantLifetime
	for j := range h.hood {
		n := &h.hood[j]
		part, err := newParticipant(n.id, n.profile, stream(h.o.seed, fmt.Sprintf("neighbour/%s/%d", n.id, gen)))
		if err != nil {
			return err
		}
		n.part = part
	}
	return nil
}

// deliver runs one participant on the marshalled request, as it would
// arrive over the air, and verifies its reply.
func (h *handset) deliver(ctx context.Context, tr *tracer, ini *core.Initiator, raw []byte, part *core.Participant, truth bool) error {
	_, sp := tr.start(ctx, "core.handle")
	m0 := sp.mallocs()
	pkg, err := core.UnmarshalPackage(raw)
	var res *core.HandleResult
	if err == nil {
		res, err = part.HandleRequest(pkg)
	}
	allocs := sp.mallocs() - m0
	if err != nil {
		sp.end()
		return err
	}
	d := res.Diagnostics
	class := "noncandidate"
	switch {
	case res.Matched:
		class = "match"
	case d != nil && d.FastCheck.Candidate:
		class = "candidate"
	}
	sp.finish("core.handle_"+class, allocs)

	if res.Dropped != "" || d == nil {
		return fmt.Errorf("participant dropped the request (%q)", res.Dropped)
	}
	h.counts.handled++
	if d.FastCheck.Candidate {
		h.counts.candidates++
		h.counts.keys += float64(d.KeysGenerated)
		h.counts.systems += float64(d.HintSystemsSolved)
	}
	if res.Matched != truth || (truth && !d.FastCheck.Candidate) {
		return fmt.Errorf("verdict matched=%v candidate=%v, plaintext match=%v", res.Matched, d.FastCheck.Candidate, truth)
	}
	if !res.Matched {
		return nil
	}
	h.counts.matches++
	if res.Reply == nil {
		return errors.New("matching participant sent no reply")
	}
	_, sp = tr.start(ctx, "core.verify")
	m, err := verifyReply(ini, res.Reply.Marshal(), h.o.tamper)
	sp.end()
	if err != nil {
		return err
	}
	if m.ChannelKey != res.ChannelKey {
		return errors.New("initiator and participant derived different channel keys")
	}
	return nil
}

func (h *handset) inputs() [32]byte { return h.dig.sum() }

func (h *handset) probe(context.Context) (probe, error) { return h.counts, nil }

func (h *handset) close() { h.failures.report("handset") }
