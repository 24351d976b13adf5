package broker

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"sealedbottle/internal/core"
)

func TestSweepQueryRoundTrip(t *testing.T) {
	q := SweepQuery{
		Residues: []core.ResidueSet{
			core.NewResidueSet(11, []uint32{0, 3, 7}),
			core.NewResidueSet(127, []uint32{1, 63, 64, 126}),
		},
		Limit:         42,
		ExcludeOrigin: "alice",
		Seen:          []string{"id-1", "id-2"},
	}
	got, err := UnmarshalSweepQuery(MarshalSweepQuery(q))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(q, got) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", q, got)
	}
}

func TestSweepQueryRoundTripEmpty(t *testing.T) {
	q := SweepQuery{Residues: []core.ResidueSet{core.NewResidueSet(3, nil)}}
	got, err := UnmarshalSweepQuery(MarshalSweepQuery(q))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Residues) != 1 || got.Residues[0].Prime != 3 || got.Limit != 0 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

// TestSweepQueryNegativeLimit guards the wire semantics: a negative limit
// means "server default" and must not wrap into an effectively unlimited
// uint32 on the way through the codec.
func TestSweepQueryNegativeLimit(t *testing.T) {
	q := SweepQuery{
		Residues: []core.ResidueSet{core.NewResidueSet(11, []uint32{1})},
		Limit:    -1,
	}
	got, err := UnmarshalSweepQuery(MarshalSweepQuery(q))
	if err != nil {
		t.Fatal(err)
	}
	if got.Limit != 0 {
		t.Fatalf("negative limit decoded as %d, want 0 (server default)", got.Limit)
	}
}

func TestSweepResultRoundTrip(t *testing.T) {
	res := SweepResult{
		Bottles: []SweptBottle{
			{ID: "a", Raw: []byte{1, 2, 3}},
			{ID: "b", Raw: nil},
		},
		Scanned:   100,
		Rejected:  90,
		Truncated: true,
	}
	got, err := UnmarshalSweepResult(MarshalSweepResult(res))
	if err != nil {
		t.Fatal(err)
	}
	if got.Scanned != 100 || got.Rejected != 90 || !got.Truncated || len(got.Bottles) != 2 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if got.Bottles[0].ID != "a" || !bytes.Equal(got.Bottles[0].Raw, []byte{1, 2, 3}) {
		t.Fatalf("bottle mismatch: %+v", got.Bottles[0])
	}
}

func TestRawListRoundTrip(t *testing.T) {
	for _, raws := range [][][]byte{nil, {{1}}, {{1, 2}, nil, {3}}} {
		got, err := UnmarshalRawList(MarshalRawList(raws))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(raws) {
			t.Fatalf("length mismatch: %d vs %d", len(got), len(raws))
		}
		for i := range raws {
			if !bytes.Equal(got[i], raws[i]) {
				t.Fatalf("blob %d mismatch", i)
			}
		}
	}
}

func TestStatsRoundTrip(t *testing.T) {
	st := Stats{
		Shards:  4,
		Workers: 2,
		Held:    7,
		Totals:  ShardStats{Held: 7, Submitted: 9, Scanned: 100, Rejected: 60, Returned: 40, RepliesIn: 3},
		PerShard: []ShardStats{
			{Held: 3, Submitted: 4},
			{Held: 4, Submitted: 5, Duplicates: 1, Expired: 2, Sweeps: 3, RepliesOut: 1, RepliesDropped: 2},
		},
		Primes:    []uint32{11, 13},
		Recovered: 21,
		WALBytes:  4096,
	}
	got, err := UnmarshalStats(MarshalStats(st))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, got) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", st, got)
	}
}

// statsSample is a snapshot with every field of the stats encoding set,
// down to the durability and replication counters at its tail.
func statsSample() Stats {
	return Stats{
		Shards: 2, Workers: 1, Held: 3,
		Totals:    ShardStats{Held: 3, Submitted: 4, RepliesIn: 1},
		PerShard:  []ShardStats{{Held: 1}, {Held: 2, Expired: 5}},
		Primes:    []uint32{11, 13},
		Recovered: 21, WALBytes: 4096,
		Replication: ReplicationStats{HintsQueued: 5, HandoffApplied: 3, ReplicaDedup: 1},
	}
}

// TestStatsRejectsEveryPrefix pins the single stats encoding: every proper
// prefix of a valid frame — including one that ends right before the
// durability or the replication counters — is ErrMalformedFrame.
func TestStatsRejectsEveryPrefix(t *testing.T) {
	full := MarshalStats(statsSample())
	if _, err := UnmarshalStats(full); err != nil {
		t.Fatalf("full frame: %v", err)
	}
	for cut := 0; cut < len(full); cut++ {
		if _, err := UnmarshalStats(full[:cut]); !errors.Is(err, ErrMalformedFrame) {
			t.Fatalf("prefix of %d/%d bytes: err = %v, want ErrMalformedFrame", cut, len(full), err)
		}
	}
}

// FuzzStatsUnmarshal hardens the stats decoder: arbitrary bytes must never
// panic, and every frame it accepts must re-encode byte-identically — the
// encoding has exactly one form per snapshot.
func FuzzStatsUnmarshal(f *testing.F) {
	f.Add([]byte{})
	f.Add(MarshalStats(Stats{}))
	f.Add(MarshalStats(statsSample()))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := UnmarshalStats(data)
		if err != nil {
			return
		}
		if again := MarshalStats(st); !bytes.Equal(again, data) {
			t.Fatalf("re-encoding differs:\n in %x\nout %x", data, again)
		}
	})
}

func TestReplyPostRoundTrip(t *testing.T) {
	id, raw, err := UnmarshalReplyPost(MarshalReplyPost("req-9", []byte{9, 9}))
	if err != nil {
		t.Fatal(err)
	}
	if id != "req-9" || !bytes.Equal(raw, []byte{9, 9}) {
		t.Fatalf("round trip mismatch: %q %v", id, raw)
	}
}

// TestCodecRejectsTruncation walks every prefix of each encoding and demands
// a clean ErrMalformedFrame (never a panic, never silent acceptance). Stats
// frames get the same walk in TestStatsRejectsEveryPrefix.
func TestCodecRejectsTruncation(t *testing.T) {
	q := MarshalSweepQuery(SweepQuery{
		Residues: []core.ResidueSet{core.NewResidueSet(11, []uint32{5})},
		Seen:     []string{"x"},
	})
	res := MarshalSweepResult(SweepResult{Bottles: []SweptBottle{{ID: "a", Raw: []byte{1}}}, Scanned: 1})
	post := MarshalReplyPost("id", []byte{1})
	list := MarshalRawList([][]byte{{1, 2}})

	for name, enc := range map[string][]byte{"query": q, "result": res, "post": post, "list": list} {
		for cut := 0; cut < len(enc); cut++ {
			var err error
			switch name {
			case "query":
				_, err = UnmarshalSweepQuery(enc[:cut])
			case "result":
				_, err = UnmarshalSweepResult(enc[:cut])
			case "post":
				_, _, err = UnmarshalReplyPost(enc[:cut])
			case "list":
				_, err = UnmarshalRawList(enc[:cut])
			}
			if !errors.Is(err, ErrMalformedFrame) {
				t.Fatalf("%s truncated at %d: err = %v, want ErrMalformedFrame", name, cut, err)
			}
		}
	}
}
