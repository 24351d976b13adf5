package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math/rand/v2"
	"os"
	"sort"

	"sealedbottle/internal/attr"
	"sealedbottle/internal/core"
	"sealedbottle/internal/dataset"
)

// Every input of a run derives from its --seed: the corpus comes from
// dataset.Generate, and each consumer of randomness (initiator, participant,
// bottle population, choices) reads its own ChaCha8 stream keyed by the seed
// and a label, so adding a consumer never shifts another's bytes.

// stream returns the deterministic byte stream for one labelled purpose.
func stream(seed int64, label string) *rand.ChaCha8 {
	return rand.NewChaCha8(sha256.Sum256([]byte(fmt.Sprintf("perfbench/%d/%s", seed, label))))
}

// chooser returns a seeded source of choices (indices, shuffles).
func chooser(seed int64, label string) *rand.Rand {
	return rand.New(stream(seed, label))
}

// rawSpec is a request specification before attribute normalisation: tag
// values only, so building the attr.Attribute values stays inside the timed
// op where the attr layer's cost belongs.
type rawSpec struct {
	necessary   []string
	optional    []string
	minOptional int
}

// build normalises the tags into a core.RequestSpec and validates it.
func (r rawSpec) build() (core.RequestSpec, error) {
	spec := core.RequestSpec{MinOptional: r.minOptional}
	for _, v := range r.necessary {
		a, err := attr.New(attr.HeaderTag, v)
		if err != nil {
			return core.RequestSpec{}, err
		}
		spec.Necessary = append(spec.Necessary, a)
	}
	for _, v := range r.optional {
		a, err := attr.New(attr.HeaderTag, v)
		if err != nil {
			return core.RequestSpec{}, err
		}
		spec.Optional = append(spec.Optional, a)
	}
	return spec, spec.Validate()
}

// Request shape: one necessary tag and four optional ones of which three must
// be owned (β=3, γ=1), so every request carries a hint matrix and a matching
// participant recovers one position by solving it.
const (
	specNecessary = 1
	specOwnedOpt  = 3
	minTags       = specNecessary + specOwnedOpt
)

// newSpec draws a request for which the owner of tags matches: the necessary
// tag and three optional ones come from tags, the fourth optional tag is a
// popular tag the owner lacks.
func newSpec(rng *rand.Rand, tags, popular []string) rawSpec {
	perm := rng.Perm(len(tags))
	r := rawSpec{minOptional: specOwnedOpt}
	for _, i := range perm[:specNecessary] {
		r.necessary = append(r.necessary, tags[i])
	}
	for _, i := range perm[specNecessary:minTags] {
		r.optional = append(r.optional, tags[i])
	}
	owned := make(map[string]bool, len(tags))
	for _, t := range tags {
		owned[t] = true
	}
	for {
		t := popular[rng.IntN(len(popular))]
		if !owned[t] {
			r.optional = append(r.optional, t)
			return r
		}
	}
}

// corpus is the seeded profile corpus with the users that can seed a request.
type corpus struct {
	users    []dataset.User
	eligible []int // indices of users with at least minTags tags
	byTags   map[int][]int
	popular  []string
}

func newCorpus(seed int64, users int) *corpus {
	c := dataset.Generate(dataset.Params{Users: users, Seed: seed})
	out := &corpus{users: c.Users, byTags: map[int][]int{}, popular: c.PopularTags(64)}
	for i, u := range c.Users {
		if len(u.Tags) >= minTags {
			out.eligible = append(out.eligible, i)
		}
		out.byTags[len(u.Tags)] = append(out.byTags[len(u.Tags)], i)
	}
	return out
}

// pick draws an eligible user.
func (c *corpus) pick(rng *rand.Rand) dataset.User {
	return c.users[c.eligible[rng.IntN(len(c.eligible))]]
}

// pickWithTags draws a user with exactly n tags.
func (c *corpus) pickWithTags(rng *rand.Rand, n int) (dataset.User, error) {
	idx := c.byTags[n]
	if len(idx) == 0 {
		return dataset.User{}, fmt.Errorf("corpus has no user with %d tags", n)
	}
	return c.users[idx[rng.IntN(len(idx))]], nil
}

// digest accumulates the byte-exact form of a set-up's generated inputs, so a
// run can check that two set-ups from one seed produced identical inputs.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) str(s string) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
	d.h.Write(n[:])
	d.h.Write([]byte(s))
}

func (d *digest) spec(r rawSpec) {
	for _, v := range r.necessary {
		d.str("n:" + v)
	}
	for _, v := range r.optional {
		d.str("o:" + v)
	}
	d.str(fmt.Sprint("b:", r.minOptional))
}

func (d *digest) profile(p *attr.Profile) {
	canon := p.Canonicals()
	sort.Strings(canon)
	for _, s := range canon {
		d.str(s)
	}
	d.str("|")
}

func (d *digest) sum() [32]byte {
	var out [32]byte
	copy(out[:], d.h.Sum(nil))
	return out
}

// failureLog keeps a workload's first failure and counts the rest; they are
// reported on standard error when the workload closes.
type failureLog struct {
	first error
	n     int
}

func (l *failureLog) add(err error) {
	if l.first == nil {
		l.first = err
	}
	l.n++
}

func (l *failureLog) report(name string) {
	if l.n > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d failed ops, first: %v\n", name, l.n, l.first)
	}
}
