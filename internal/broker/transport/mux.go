package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"time"
)

// Multiplexed ("pipelined") framing, the protocol's only framing. A client
// opens every connection with the 4-byte magic MuxMagic; every subsequent
// frame in both directions is
//
//	[4-byte big-endian length][8-byte big-endian sequence][1-byte tag][body]
//
// where length counts the sequence, tag and body (so length >= muxHeaderSize)
// and is bounded by MaxFrameSize. The tag is an opcode on requests and a
// status byte on responses; the server echoes the request's sequence number on
// its response, and may answer out of order, so one connection carries many
// in-flight requests.
//
// Both ends write frames through a coalescing writer goroutine that flushes
// only when its queue drains, so under pipelined load many frames ride one
// syscall — on loopback this, not I/O overlap, is most of the throughput win.

// MuxMagic is the connection preamble ("SBM1") that every connection sends
// before its first frame; the server closes a connection that opens with
// anything else.
const MuxMagic uint32 = 0x53424D31

// muxHeaderSize is the sequence + tag prefix counted by a mux frame's length.
const muxHeaderSize = 9

// muxWriteQueue is the depth of the coalescing writer's frame queue.
const muxWriteQueue = 256

// muxBufferSize sizes the buffered reader and writer on multiplexed
// connections. Frames routinely carry ~1 KiB request packages; bufio's 4 KiB
// default would flush or refill every few frames of a pipelined burst,
// forfeiting most of the coalescing win.
const muxBufferSize = 64 << 10

// Errors of the multiplexed client.
var (
	// ErrCallTimeout indicates a call that did not complete within the
	// configured CallTimeout. Two distinct situations wrap it, and the error
	// text says which: a per-call timeout arrives inside an AbandonedError —
	// only that call is abandoned, the multiplexed connection keeps serving —
	// while a progress-deadline expiry (no response frame at all while calls
	// were pending: a dead peer) fails the whole connection, and pooled
	// callers should recycle it.
	ErrCallTimeout = errors.New("transport: call timed out")
	// ErrClientClosed indicates a call attempted on a closed client.
	ErrClientClosed = errors.New("transport: client closed")
)

// appendMuxFrame appends one sequence-tagged frame.
func appendMuxFrame(buf []byte, seq uint64, tag byte, body []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(body)+muxHeaderSize))
	buf = binary.BigEndian.AppendUint64(buf, seq)
	buf = append(buf, tag)
	return append(buf, body...)
}

// muxBufs pools encoded-frame and read-side buffers so the steady-state mux
// path allocates nothing per frame. Ownership is single-holder: whoever Got
// the buffer either hands it (whole, via the writer queue) to the one
// goroutine that will Put it, or Puts it itself; a buffer is never Put while
// any view into it is still live. Buffers that grew past maxPooledMuxBuf are
// dropped instead of pooled so one jumbo frame does not pin megabytes.
var muxBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledMuxBuf = 256 << 10

func putMuxBuf(buf *[]byte) {
	if cap(*buf) > maxPooledMuxBuf {
		return
	}
	*buf = (*buf)[:0]
	muxBufs.Put(buf)
}

// newMuxFrame encodes one sequence-tagged frame into a pooled buffer. The
// caller owns the buffer and must route it to exactly one putMuxBuf — via the
// coalescing writer (which recycles after writing) or directly on an enqueue
// failure.
func newMuxFrame(seq uint64, tag byte, body []byte) *[]byte {
	f := muxBufs.Get().(*[]byte)
	*f = appendMuxFrame((*f)[:0], seq, tag, body)
	return f
}

// writeMuxFrame writes one sequence-tagged frame as a single Write.
func writeMuxFrame(w io.Writer, seq uint64, tag byte, body []byte) error {
	if len(body)+muxHeaderSize > MaxFrameSize {
		return ErrFrameTooLarge
	}
	f := newMuxFrame(seq, tag, body)
	_, err := w.Write(*f)
	putMuxBuf(f)
	return err
}

// readMuxFrame reads one sequence-tagged frame into a fresh buffer whose
// ownership passes to the caller — the client read loop uses it because
// response bodies outlive the loop iteration (callers' zero-copy decodes
// alias them indefinitely).
func readMuxFrame(r io.Reader) (seq uint64, tag byte, body []byte, err error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return 0, 0, nil, err
	}
	size := binary.BigEndian.Uint32(lenBuf[:])
	if size < muxHeaderSize {
		return 0, 0, nil, ErrShortFrame
	}
	if size > MaxFrameSize {
		return 0, 0, nil, ErrFrameTooLarge
	}
	buf := make([]byte, size)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, 0, nil, err
	}
	return binary.BigEndian.Uint64(buf[:8]), buf[8], buf[muxHeaderSize:], nil
}

// readMuxFramePooled reads one sequence-tagged frame into a pooled buffer.
// body aliases the returned buffer; the caller must putMuxBuf it once the
// body is dead — the server request loop can, because every rack operation
// copies what it retains before dispatch returns (the codec's documented
// copy-on-retain boundary).
func readMuxFramePooled(r io.Reader) (seq uint64, tag byte, body []byte, buf *[]byte, err error) {
	// The length prefix is read into the pooled buffer too: a local [4]byte
	// would escape through the io.Reader interface and cost the one
	// allocation this path exists to avoid.
	buf = muxBufs.Get().(*[]byte)
	if cap(*buf) < 4 {
		*buf = make([]byte, 4, muxHeaderSize+1024)
	}
	*buf = (*buf)[:4]
	if _, err := io.ReadFull(r, *buf); err != nil {
		putMuxBuf(buf)
		return 0, 0, nil, nil, err
	}
	size := binary.BigEndian.Uint32(*buf)
	if size < muxHeaderSize {
		putMuxBuf(buf)
		return 0, 0, nil, nil, ErrShortFrame
	}
	if size > MaxFrameSize {
		putMuxBuf(buf)
		return 0, 0, nil, nil, ErrFrameTooLarge
	}
	if cap(*buf) < int(size) {
		*buf = make([]byte, size)
	}
	*buf = (*buf)[:size]
	if _, err := io.ReadFull(r, *buf); err != nil {
		putMuxBuf(buf)
		return 0, 0, nil, nil, err
	}
	b := *buf
	return binary.BigEndian.Uint64(b[:8]), b[8], b[muxHeaderSize:], buf, nil
}

// muxWriter is the coalescing frame writer shared by the mux client and the
// server's mux connections: frames are queued on a channel and a single
// goroutine writes them through a bufio.Writer, flushing only when the queue
// is momentarily empty. Queued frames are pooled buffers: the writer recycles
// each one after copying it into the bufio buffer (or skipping it after a
// failure), so the frame pool turns over at queue speed. onErr is invoked
// once on the first write failure; after a failure the writer keeps draining
// the queue so enqueuers never block on a dead connection.
type muxWriter struct {
	ch     chan *[]byte
	done   chan struct{} // closed by the owner to stop the writer
	exited chan struct{} // closed when the writer goroutine returns
}

func newMuxWriter(conn net.Conn, done chan struct{}, deadline func() time.Time, onErr func(error)) *muxWriter {
	w := &muxWriter{ch: make(chan *[]byte, muxWriteQueue), done: done, exited: make(chan struct{})}
	go func() {
		defer close(w.exited)
		bw := bufio.NewWriterSize(conn, muxBufferSize)
		failed := false
		write := func(frame *[]byte) {
			if !failed {
				if d := deadline(); !d.IsZero() {
					conn.SetWriteDeadline(d)
				}
				if _, err := bw.Write(*frame); err != nil {
					failed = true
					onErr(err)
				}
			}
			putMuxBuf(frame)
		}
		for {
			select {
			case frame := <-w.ch:
				// Yield once so callers racing to enqueue get to, then drain
				// the queue and flush the whole burst as one write. Without
				// the yield the scheduler tends to run this goroutine the
				// moment the first frame lands, degenerating to one syscall
				// per frame under pipelined load on few cores.
				runtime.Gosched()
				write(frame)
				for drained := false; !drained; {
					select {
					case f := <-w.ch:
						write(f)
					default:
						drained = true
					}
				}
				if !failed {
					if err := bw.Flush(); err != nil {
						failed = true
						onErr(err)
					}
				}
			case <-done:
				// Drain what is already queued so responses accepted before
				// shutdown still go out, then stop.
				for {
					select {
					case f := <-w.ch:
						write(f)
					default:
						if !failed {
							bw.Flush()
						}
						return
					}
				}
			}
		}
	}()
	return w
}

// enqueue hands a pooled frame to the writer; it fails only once the owner
// has signalled done. On success the writer owns the frame and recycles it;
// on failure ownership stays with the caller, who must putMuxBuf it.
func (w *muxWriter) enqueue(frame *[]byte) bool {
	select {
	case w.ch <- frame:
		return true
	case <-w.done:
		return false
	}
}

// muxResult is one demuxed response.
type muxResult struct {
	status byte
	body   []byte
}

// Mux speaks the multiplexed framing over one connection: a dedicated reader
// goroutine demuxes responses by sequence number to waiting callers, so any
// number of calls may be in flight concurrently. All methods are safe for
// concurrent use; a connection-level failure fails every in-flight and future
// call.
type Mux struct {
	conn   net.Conn
	opts   Options
	writer *muxWriter

	mu      sync.Mutex // guards the fields below
	seq     uint64
	pending map[uint64]chan muxResult
	err     error // terminal connection error, once set
	done    chan struct{}
}

// NewMux sends the mux preamble on an established connection and starts the
// demuxing reader and coalescing writer. The connection must be fresh: the
// preamble has to be the first bytes the server reads.
func NewMux(conn net.Conn, opts ...Options) (*Mux, error) {
	m := &Mux{
		conn:    conn,
		opts:    firstOption(opts),
		pending: make(map[uint64]chan muxResult),
		done:    make(chan struct{}),
	}
	var magic [4]byte
	binary.BigEndian.PutUint32(magic[:], MuxMagic)
	if d := m.opts.writeDeadline(); !d.IsZero() {
		conn.SetWriteDeadline(d)
	}
	// The authentication preamble, when configured, precedes the framing
	// magic: the server pins the connection's identity before sniffing.
	if len(m.opts.Token) > 0 {
		if err := writeHello(conn, m.opts.Token); err != nil {
			conn.Close()
			return nil, err
		}
	}
	if _, err := conn.Write(magic[:]); err != nil {
		conn.Close()
		return nil, err
	}
	m.writer = newMuxWriter(conn, m.done, m.opts.writeDeadline, func(err error) {
		m.fail(err)
		m.conn.Close()
	})
	go m.readLoop()
	return m, nil
}

// DialMux connects a multiplexed client over TCP (TLS when the options carry
// a config).
func DialMux(addr string, opts ...Options) (*Mux, error) {
	conn, err := dialNetConn(addr, firstOption(opts))
	if err != nil {
		return nil, err
	}
	return NewMux(conn, opts...)
}

// readLoop demuxes response frames to their waiting callers until the
// connection fails or the client closes. CallTimeout is enforced here as a
// progress deadline: while calls are pending the connection must deliver a
// response frame within CallTimeout or the whole connection fails with
// ErrCallTimeout — the dead-peer detector. (Individual slow calls are bounded
// separately by the per-call timer in wait(), which abandons just that call;
// this connection-level deadline is what catches a peer sending nothing at
// all.)
func (m *Mux) readLoop() {
	br := bufio.NewReaderSize(m.conn, muxBufferSize)
	for {
		seq, status, body, err := readMuxFrame(br)
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				// No response frame at all within the progress window: the
				// peer is dead to us, so the whole connection fails. (A single
				// slow call would have been abandoned individually instead.)
				err = fmt.Errorf("transport: no response within progress deadline %v: %w",
					m.opts.CallTimeout, ErrCallTimeout)
			}
			m.fail(err)
			m.conn.Close()
			return
		}
		m.mu.Lock()
		ch, ok := m.pending[seq]
		delete(m.pending, seq)
		// The deadline update happens under mu so it cannot interleave with a
		// concurrent call arming the idle→busy deadline: whichever of the two
		// observes the map last also sets the deadline last.
		if m.opts.CallTimeout > 0 {
			if len(m.pending) > 0 {
				m.conn.SetReadDeadline(time.Now().Add(m.opts.CallTimeout))
			} else {
				m.conn.SetReadDeadline(time.Time{})
			}
		}
		m.mu.Unlock()
		if ok {
			// Buffered: a send never blocks the demux loop.
			ch <- muxResult{status: status, body: body}
		}
	}
}

// fail records the terminal error and releases every in-flight caller.
func (m *Mux) fail(err error) {
	m.mu.Lock()
	if m.err == nil {
		m.err = err
		close(m.done)
	}
	m.pending = make(map[uint64]chan muxResult)
	m.mu.Unlock()
}

// Close tears the connection down, failing in-flight calls with
// ErrClientClosed.
func (m *Mux) Close() error {
	m.fail(ErrClientClosed)
	return m.conn.Close()
}

// muxResultChans pools response channels across calls; a channel is only
// returned to the pool by the caller that drained its delivery, so a pooled
// channel is always empty and unreferenced by the read loop.
var muxResultChans = sync.Pool{New: func() any { return make(chan muxResult, 1) }}

// call performs one request/response exchange; responses for other in-flight
// calls may be delivered first.
//
// Three bounds can end the wait, earliest wins, and the error says which:
// the caller's context (ctx.Err, wrapped in AbandonedError), the per-call
// CallTimeout (ErrCallTimeout wrapped in AbandonedError), and the
// connection's progress deadline (the connection itself fails with
// ErrCallTimeout — no response frame at all arrived within CallTimeout, the
// dead-peer signal). The first two abandon only this call: its sequence
// number is forgotten, a late response is discarded on arrival, and the
// connection keeps serving every other caller. The request frame may already
// be on the wire, so the server may still execute it — abandonment releases
// the caller, it does not undo work.
func (m *Mux) call(ctx context.Context, op byte, body []byte) ([]byte, error) {
	cm := m.opts.Metrics
	if cm == nil {
		return m.roundTrip(ctx, op, body)
	}
	start := time.Now()
	resp, err := m.roundTrip(ctx, op, body)
	cm.record(op, start, err)
	return resp, err
}

// roundTrip is call without the instrumentation wrapper; see call for the
// deadline and abandonment semantics.
func (m *Mux) roundTrip(ctx context.Context, op byte, body []byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, &AbandonedError{Cause: err}
	}
	if len(body)+muxHeaderSize > MaxFrameSize {
		return nil, ErrFrameTooLarge
	}
	ch := muxResultChans.Get().(chan muxResult)
	m.mu.Lock()
	if m.err != nil {
		err := m.err
		m.mu.Unlock()
		muxResultChans.Put(ch)
		return nil, err
	}
	m.seq++
	seq := m.seq
	m.pending[seq] = ch
	if len(m.pending) == 1 && m.opts.CallTimeout > 0 {
		// The read loop renews this deadline as responses arrive; arming it on
		// the idle→busy transition (under mu, so it cannot race the loop's
		// idle clear) is what turns a dead peer into an error.
		m.conn.SetReadDeadline(time.Now().Add(m.opts.CallTimeout))
	}
	m.mu.Unlock()

	if frame := newMuxFrame(seq, op, body); !m.writer.enqueue(frame) {
		putMuxBuf(frame)
		m.mu.Lock()
		delete(m.pending, seq)
		err := m.err
		m.mu.Unlock()
		return nil, err
	}

	res, err := m.wait(ctx, seq, ch)
	if err != nil {
		return nil, err
	}
	muxResultChans.Put(ch)
	if res.status != statusOK {
		return nil, remoteError(res.status, res.body)
	}
	return res.body, nil
}

// wait blocks until the call's response is delivered or a bound ends the
// wait. On error the channel must NOT be pooled by the caller (abandon
// pooled it, or a dying read loop may still reference it).
func (m *Mux) wait(ctx context.Context, seq uint64, ch chan muxResult) (muxResult, error) {
	// Fast path: the response may already be buffered (pipelined bursts on a
	// loaded connection); skip the per-call timer allocation entirely then.
	select {
	case res := <-ch:
		return res, nil
	default:
	}
	var timeoutC <-chan time.Time
	if m.opts.CallTimeout > 0 {
		timer := time.NewTimer(m.opts.CallTimeout)
		defer timer.Stop()
		timeoutC = timer.C
	}
	select {
	case res := <-ch:
		return res, nil
	case <-ctx.Done():
		if res, delivered := m.abandon(seq, ch); delivered {
			return res, nil
		}
		return muxResult{}, &AbandonedError{Cause: ctx.Err()}
	case <-timeoutC:
		if res, delivered := m.abandon(seq, ch); delivered {
			return res, nil
		}
		return muxResult{}, &AbandonedError{
			Cause: fmt.Errorf("%w (per-call timeout %v)", ErrCallTimeout, m.opts.CallTimeout),
		}
	case <-m.done:
		// Prefer a delivery that raced the failure; otherwise the channel may
		// still be referenced by a dying read loop, so it is not pooled.
		select {
		case res := <-ch:
			return res, nil
		default:
			m.mu.Lock()
			delete(m.pending, seq)
			err := m.err
			m.mu.Unlock()
			return muxResult{}, err
		}
	}
}

// abandon withdraws a call whose caller stopped waiting. If the sequence is
// still pending it is forgotten — the read loop will find no waiter when (if
// ever) its response arrives and discard it, leaving the connection usable —
// and the progress deadline is re-derived for the remaining pending set. If
// the read loop already claimed the sequence, its delivery is imminent on the
// buffered channel, so it is collected and returned as a normal completion
// (delivered=true): the response exists, losing it would only force the
// caller to wonder whether the operation executed.
//
// Pooling discipline: abandon pools the channel only on the abandoned
// (delivered=false, sequence-was-ours) path. On the delivered path the
// caller falls through to its normal completion and pools the channel
// exactly once there — a second Put here would hand the same channel to two
// future callers and cross-deliver their responses.
func (m *Mux) abandon(seq uint64, ch chan muxResult) (muxResult, bool) {
	m.mu.Lock()
	_, mine := m.pending[seq]
	if mine {
		delete(m.pending, seq)
		if m.opts.CallTimeout > 0 && len(m.pending) == 0 && m.err == nil {
			// Last pending call abandoned: clear the progress deadline so the
			// now-idle connection is not failed for silence nobody minds.
			m.conn.SetReadDeadline(time.Time{})
		}
	}
	m.mu.Unlock()
	if mine {
		muxResultChans.Put(ch)
		return muxResult{}, false
	}
	// The loop claimed the sequence before we could: its buffered send either
	// landed already or is instants away (or the connection is failing, in
	// which case done breaks the wait and the channel is left unpooled).
	select {
	case res := <-ch:
		return res, true
	case <-m.done:
		select {
		case res := <-ch:
			return res, true
		default:
			return muxResult{}, false
		}
	}
}
