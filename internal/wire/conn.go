package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"borgmoea/internal/obs"
)

// Options tunes a connection's liveness machinery. The zero value
// gives sane defaults; a negative Heartbeat disables the background
// pinger (useful in tests that exercise the idle timeout).
type Options struct {
	// Heartbeat is the interval between background Pings on an
	// otherwise idle link. 0 means DefaultHeartbeat; < 0 disables.
	Heartbeat time.Duration
	// IdleTimeout is how long Recv waits without any inbound frame
	// (heartbeats included) before declaring the peer dead. 0 means
	// 4× the effective heartbeat, or DefaultIdleTimeout when
	// heartbeats are disabled. A silent peer is detected between 1×
	// and 1.25× this long after the last frame: the connection re-arms
	// its read deadline only when less than IdleTimeout remains on it,
	// and then to 1.25× ahead, rather than resetting a timer per frame.
	IdleTimeout time.Duration
	// WriteTimeout bounds one frame write (default 10s). The write
	// deadline is armed the same lazy way as the read deadline, so a
	// write blocked on a peer that stopped reading fails between 1×
	// and 1.25× WriteTimeout after it started.
	WriteTimeout time.Duration
	// DialTimeout bounds the TCP connect (default 5s).
	DialTimeout time.Duration
	// Metrics, when set, receives transport telemetry: frame and byte
	// counters in both directions, the socket read and write calls
	// beneath the buffering, frame decode errors, and a heartbeat
	// round-trip-time histogram. Shared by every connection built from
	// these options; nil disables (zero hot-path cost).
	Metrics *obs.Registry
	// OnRTT, when set, receives every measured heartbeat round-trip
	// time in seconds, in addition to the Metrics histogram — the live
	// T_C feed of the scalability advisor (one-way communication time
	// ≈ RTT/2). Called from the connection's reader goroutine; keep it
	// fast and concurrency-safe.
	OnRTT func(seconds float64)
	// ReuseMessages makes Recv decode the hot-path messages (Evaluate,
	// Result, Migrant) into per-connection scratch structs, so a
	// steady-state receive allocates nothing. Only safe when every
	// message returned by Recv is fully consumed before the next Recv
	// call — the pattern of the worker serve loop and of Host, whose
	// readers hand each result to the master before reading the next
	// (both turn it on themselves). Leave it off when received messages
	// are retained or handed to another goroutine.
	ReuseMessages bool
}

// Wire-level metric names registered on Options.Metrics.
const (
	MetricFramesSent  = "wire.frames_sent"
	MetricFramesRecv  = "wire.frames_recv"
	MetricBytesSent   = "wire.bytes_sent"
	MetricBytesRecv   = "wire.bytes_recv"
	MetricReadCalls   = "wire.read_calls"
	MetricWriteCalls  = "wire.write_calls"
	MetricFrameErrors = "wire.frame_errors"
	MetricRedials     = "wire.redials"
	MetricRTT         = "wire.heartbeat_rtt_seconds"
)

// connMetrics is the resolved instrument set of one connection. The
// zero value (from a nil registry) is fully inert.
type connMetrics struct {
	framesSent, framesRecv *obs.Counter
	bytesSent, bytesRecv   *obs.Counter
	readCalls, writeCalls  *obs.Counter
	frameErrors            *obs.Counter
	rtt                    *obs.Histogram
}

func newConnMetrics(reg *obs.Registry) connMetrics {
	return connMetrics{
		framesSent:  reg.Counter(MetricFramesSent),
		framesRecv:  reg.Counter(MetricFramesRecv),
		bytesSent:   reg.Counter(MetricBytesSent),
		bytesRecv:   reg.Counter(MetricBytesRecv),
		readCalls:   reg.Counter(MetricReadCalls),
		writeCalls:  reg.Counter(MetricWriteCalls),
		frameErrors: reg.Counter(MetricFrameErrors),
		rtt:         reg.Histogram(MetricRTT, nil),
	}
}

// countingReader counts bytes and read calls as they leave the socket,
// beneath the bufio layer, so read-ahead is attributed when it happens
// and a call is one socket read (plus whatever EAGAIN retries the
// runtime's poller makes inside it).
type countingReader struct {
	r     io.Reader
	n     *obs.Counter
	calls *obs.Counter
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.calls.Inc()
	if n > 0 {
		cr.n.Add(uint64(n))
	}
	return n, err
}

// Defaults for the zero Options value.
const (
	DefaultHeartbeat   = 2 * time.Second
	DefaultIdleTimeout = 30 * time.Second
)

func (o Options) heartbeat() time.Duration {
	switch {
	case o.Heartbeat < 0:
		return 0
	case o.Heartbeat == 0:
		return DefaultHeartbeat
	}
	return o.Heartbeat
}

func (o Options) idleTimeout() time.Duration {
	if o.IdleTimeout > 0 {
		return o.IdleTimeout
	}
	if hb := o.heartbeat(); hb > 0 {
		return 4 * hb
	}
	return DefaultIdleTimeout
}

func (o Options) writeTimeout() time.Duration {
	if o.WriteTimeout > 0 {
		return o.WriteTimeout
	}
	return 10 * time.Second
}

func (o Options) dialTimeout() time.Duration {
	if o.DialTimeout > 0 {
		return o.DialTimeout
	}
	return 5 * time.Second
}

// Conn is one protocol connection: framed sends under a write deadline,
// framed receives under an idle deadline, and transparent Ping/Pong
// handling. Send is safe for concurrent use (the heartbeat goroutine
// shares it); Recv must be called from a single reader goroutine.
type Conn struct {
	nc       net.Conn
	br       *bufio.Reader
	opt      Options
	met      connMetrics
	pingNano atomic.Int64 // send time of the ping awaiting its pong
	wmu      sync.Mutex
	wbuf     []byte // frame scratch, reused under wmu
	rbuf     []byte // payload scratch, owned by the single Recv caller
	rsc      DecodeScratch
	done     chan struct{}
	once     sync.Once
	hb       sync.WaitGroup // the pinger; Close waits for it

	// The armed deadlines, as offsets from born on the monotonic clock
	// (see rearm): rdl belongs to the Recv caller, wdl to wmu's holder.
	born     time.Time
	rdl, wdl time.Duration
}

func newConn(nc net.Conn, opt Options) *Conn {
	c := &Conn{
		nc:   nc,
		opt:  opt,
		met:  newConnMetrics(opt.Metrics),
		done: make(chan struct{}),
		born: time.Now(),
	}
	c.br = bufio.NewReader(&countingReader{r: nc, n: c.met.bytesRecv, calls: c.met.readCalls})
	return c
}

// rearm reports the deadline to set on the socket when less than
// timeout remains on the armed one — now + 5/4 of timeout — and false
// while the armed one still covers timeout. One clock read per frame
// replaces a runtime-timer reset per frame; the price is that an
// operation may run up to 1.25× timeout before it fails.
func (c *Conn) rearm(armed *time.Duration, timeout time.Duration) (time.Time, bool) {
	now := time.Since(c.born)
	if *armed-now >= timeout {
		return time.Time{}, false
	}
	*armed = now + timeout + timeout/4
	return c.born.Add(*armed), true
}

// RemoteAddr reports the peer's address.
func (c *Conn) RemoteAddr() net.Addr { return c.nc.RemoteAddr() }

// Send frames and writes one message under the write deadline. The
// frame is encoded into a per-connection scratch buffer guarded by
// the write lock, so steady-state sends allocate nothing. Each Send is
// one socket write call.
func (c *Conn) Send(m Message) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = AppendFrame(c.wbuf[:0], m)
	if at, ok := c.rearm(&c.wdl, c.opt.writeTimeout()); ok {
		if err := c.nc.SetWriteDeadline(at); err != nil {
			return err
		}
	}
	_, err := c.nc.Write(c.wbuf)
	c.met.writeCalls.Inc()
	if err != nil {
		return err
	}
	c.met.framesSent.Inc()
	c.met.bytesSent.Add(uint64(len(c.wbuf)))
	return nil
}

// Recv returns the next protocol message. Heartbeats are consumed
// internally: a Ping is answered with a Pong, and both keep the link
// alive without surfacing. An idle timeout, a peer close, or a
// malformed frame all return an error — the connection is then dead.
//
// Frame payloads land in a per-connection buffer that decoding never
// leaks into a Message, so receives don't allocate a payload per
// frame. With Options.ReuseMessages the hot-path messages themselves
// are also reused (see the option's aliasing contract).
func (c *Conn) Recv() (Message, error) {
	for {
		if at, ok := c.rearm(&c.rdl, c.opt.idleTimeout()); ok {
			if err := c.nc.SetReadDeadline(at); err != nil {
				return nil, err
			}
		}
		var m Message
		payload, next, err := readFrame(c.br, c.rbuf)
		c.rbuf = next
		if err == nil {
			if c.opt.ReuseMessages {
				m, err = DecodeFrameInto(payload, &c.rsc)
			} else {
				m, err = DecodeFrame(payload)
			}
		}
		if err != nil {
			if !isTransportErr(err) {
				c.met.frameErrors.Inc()
			}
			return nil, err
		}
		c.met.framesRecv.Inc()
		switch m.(type) {
		case Ping:
			if err := c.Send(Pong{}); err != nil {
				return nil, err
			}
		case Pong:
			// Liveness only; arriving kept the link alive — but a
			// pending ping's round trip is worth recording.
			if sent := c.pingNano.Swap(0); sent != 0 {
				rtt := time.Since(time.Unix(0, sent)).Seconds()
				c.met.rtt.Observe(rtt)
				if c.opt.OnRTT != nil {
					c.opt.OnRTT(rtt)
				}
			}
		default:
			return m, nil
		}
	}
}

// isTransportErr distinguishes connection-lifecycle errors (peer gone,
// idle timeout, shutdown) from protocol defects worth counting as
// frame errors (CRC mismatch, bad version, truncated body).
func isTransportErr(err error) bool {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// StartHeartbeat launches the background pinger at the given interval
// (0 = the connection's configured/default interval; disabled options
// make this a no-op). The pinger stops when the connection closes or a
// ping fails. Call it before any other goroutine can Close the
// connection.
func (c *Conn) StartHeartbeat(interval time.Duration) {
	if interval <= 0 {
		interval = c.opt.heartbeat()
	}
	if interval <= 0 {
		return
	}
	c.hb.Add(1)
	go func() {
		defer c.hb.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-c.done:
				return
			case <-t.C:
				c.pingNano.Store(time.Now().UnixNano())
				if err := c.Send(Ping{}); err != nil {
					return
				}
			}
		}
	}()
}

// Close tears the connection down and waits for its pinger; it is safe
// to call repeatedly and from any goroutine (Recv/Send unblock with
// errors).
func (c *Conn) Close() error {
	c.once.Do(func() { close(c.done) })
	err := c.nc.Close()
	c.hb.Wait()
	return err
}

// Dial connects to a master, performs the client side of the handshake
// (send Hello, await Welcome), and returns the live connection. The
// caller decides when to StartHeartbeat — typically right after
// inspecting the Welcome.
func Dial(addr string, hello Hello, opt Options) (*Conn, *Welcome, error) {
	nc, err := net.DialTimeout("tcp", addr, opt.dialTimeout())
	if err != nil {
		return nil, nil, err
	}
	c := newConn(nc, opt)
	if err := c.Send(&hello); err != nil {
		c.Close()
		return nil, nil, fmt.Errorf("wire: handshake send: %w", err)
	}
	m, err := c.Recv()
	if err != nil {
		c.Close()
		return nil, nil, fmt.Errorf("wire: handshake recv: %w", err)
	}
	w, ok := m.(*Welcome)
	if !ok {
		c.Close()
		return nil, nil, fmt.Errorf("wire: handshake: got %s, want welcome", m.Tag())
	}
	return c, w, nil
}

// ServerHandshake performs the master side of the handshake on a
// freshly accepted connection: await the worker's Hello, let accept
// mint the Welcome (assigning or echoing the worker id), and send it.
// On any failure the connection is closed.
func ServerHandshake(nc net.Conn, opt Options, accept func(Hello) (*Welcome, error)) (*Conn, *Welcome, error) {
	c := newConn(nc, opt)
	m, err := c.Recv()
	if err != nil {
		c.Close()
		return nil, nil, fmt.Errorf("wire: handshake recv: %w", err)
	}
	h, ok := m.(*Hello)
	if !ok {
		c.Close()
		return nil, nil, fmt.Errorf("wire: handshake: got %s, want hello", m.Tag())
	}
	w, err := accept(*h)
	if err != nil {
		c.Close()
		return nil, nil, err
	}
	if err := c.Send(w); err != nil {
		c.Close()
		return nil, nil, fmt.Errorf("wire: handshake send: %w", err)
	}
	return c, w, nil
}
