package transport

import (
	"bytes"
	"io"
	"testing"
)

// Allocation budgets for the steady-state framing paths. Frames ride pooled
// buffers, so a warmed write is alloc-free; the server-side
// pooled read is alloc-free too. The client read path (readMuxFrame) is
// deliberately NOT pinned at zero: it allocates one buffer per response by
// design, because body ownership passes to the caller whose zero-copy decodes
// alias it indefinitely.

func requireZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(200, f); avg != 0 {
		t.Errorf("%s: %v allocs/op, want 0", name, avg)
	}
}

func TestFramingAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; budgets are pinned by the non-race run")
	}
	body := bytes.Repeat([]byte{0xcd}, 900)

	requireZeroAllocs(t, "mux frame write", func() {
		if err := writeMuxFrame(io.Discard, 7, OpSubmit, body); err != nil {
			t.Fatal(err)
		}
	})

	var encoded bytes.Buffer
	if err := writeMuxFrame(&encoded, 9, OpReply, body); err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(encoded.Bytes())
	requireZeroAllocs(t, "mux frame pooled read", func() {
		rd.Reset(encoded.Bytes())
		seq, tag, got, buf, err := readMuxFramePooled(rd)
		if err != nil {
			t.Fatal(err)
		}
		if seq != 9 || tag != OpReply || !bytes.Equal(got, body) {
			t.Fatal("pooled read corrupted the frame")
		}
		putMuxBuf(buf)
	})
}
