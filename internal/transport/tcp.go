package transport

import (
	"bufio"
	"errors"
	"math/rand"
	"net"
	"sync"
	"time"

	"rover/internal/faults"
	"rover/internal/qrpc"
	"rover/internal/vtime"
	"rover/internal/wire"
)

// TCPServer accepts Rover clients on a TCP listener and pumps their frames
// into a server engine. This is the connection-based transport of the
// paper ("Messages can be sent over both connection-based protocols (e.g.,
// TCP/IP) and connectionless protocols").
type TCPServer struct {
	ln     net.Listener
	srv    *qrpc.Server
	clock  vtime.Clock
	wg     sync.WaitGroup
	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
}

// ListenTCP starts serving the engine on addr (e.g. "127.0.0.1:0").
func ListenTCP(addr string, srv *qrpc.Server, clock vtime.Clock) (*TCPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	t := &TCPServer{ln: ln, srv: srv, clock: clockOrDefault(clock), conns: make(map[net.Conn]struct{})}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the bound listen address.
func (t *TCPServer) Addr() string { return t.ln.Addr().String() }

func (t *TCPServer) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.conns[conn] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go t.serveConn(conn)
	}
}

func (t *TCPServer) serveConn(conn net.Conn) {
	defer t.wg.Done()
	sender := &tcpSender{conn: conn}
	t.srv.OnConnect(sender, t.clock.Now())
	// A StreamReader drops corrupt frames and resyncs instead of tearing
	// the connection down: one flipped bit costs one retransmission.
	r := wire.NewStreamReader(bufio.NewReaderSize(conn, 64<<10))
	for {
		f, err := r.Next()
		if err != nil {
			break
		}
		t.srv.OnFrame(sender, f, t.clock.Now())
	}
	t.srv.OnDisconnect(sender, t.clock.Now())
	conn.Close()
	t.mu.Lock()
	delete(t.conns, conn)
	t.mu.Unlock()
}

// Close stops accepting and tears down live connections.
func (t *TCPServer) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	for c := range t.conns {
		c.Close()
	}
	t.mu.Unlock()
	err := t.ln.Close()
	t.wg.Wait()
	return err
}

// tcpSender serializes frame writes onto one socket. The encode scratch is
// reused across sends (it is only touched under the mutex), so a frame —
// including a FrameBatch carrying a whole pump cycle — costs exactly one
// allocation-free encode and one Write syscall.
type tcpSender struct {
	mu      sync.Mutex
	conn    net.Conn
	dead    bool
	scratch []byte
}

// SendFrame implements qrpc.Sender.
func (s *tcpSender) SendFrame(f wire.Frame) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return false
	}
	s.scratch = wire.AppendFrame(s.scratch[:0], f)
	if _, err := s.conn.Write(s.scratch); err != nil {
		s.dead = true
		return false
	}
	return true
}

// TCPClient maintains a client engine's connection to a TCP server,
// reconnecting with backoff after failures — the roving host's view of an
// intermittently reachable network. With more than one address it is the
// failover transport of a replicated home pair: a dial failure rotates to
// the next address, and Rotate() forces a switch away from a live but
// unresponsive server. The QRPC handshake makes rotation safe — OnConnect
// re-sends the Hello and redelivers everything unreplied, and the replicas'
// shared session state absorbs duplicates.
type TCPClient struct {
	addrs       []string
	client      *qrpc.Client
	clock       vtime.Clock
	policy      faults.RetryPolicy
	dialTimeout time.Duration
	ackTimer    pumpTimer // flushes an ack no request has carried by its deadline

	mu        sync.Mutex
	conn      net.Conn
	sender    *tcpSender
	closed    bool
	attempts  int // total dial attempts (tests poll it instead of sleeping)
	addrIdx   int // index into addrs of the address currently targeted
	rotations int // address switches (failovers)
	wg        sync.WaitGroup
	wake      chan struct{}
}

// TCPClientOptions tune connection behavior.
type TCPClientOptions struct {
	// InitialBackoff is the first retry delay (default 50ms).
	InitialBackoff time.Duration
	// MaxBackoff caps the exponential retry delay (default 5s).
	MaxBackoff time.Duration
	// DialTimeout bounds each connection attempt (default 5s).
	DialTimeout time.Duration
	// BackoffJitter is the proportional jitter on the reconnect backoff;
	// zero selects faults.DefaultJitter, negative disables jitter. Jitter
	// keeps many clients from thundering-herding a restarted server.
	BackoffJitter float64
}

// DialTCP starts maintaining a connection from the client engine to addr.
// It returns immediately; connection happens in the background (the whole
// point of QRPC is that the application need not wait).
func DialTCP(addr string, client *qrpc.Client, clock vtime.Clock, opts TCPClientOptions) *TCPClient {
	return DialTCPMulti([]string{addr}, client, clock, opts)
}

// DialTCPMulti is DialTCP over a replicated server's address list: the
// first address is preferred, a failed dial rotates to the next, and
// Rotate() forces a switch (connection loss or a server shedding load).
// Addresses wrap around, so a crashed-and-rebuilt primary is retried again
// after the backups.
func DialTCPMulti(addrs []string, client *qrpc.Client, clock vtime.Clock, opts TCPClientOptions) *TCPClient {
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 5 * time.Second
	}
	jitter := opts.BackoffJitter
	if jitter == 0 {
		jitter = faults.DefaultJitter
	} else if jitter < 0 {
		jitter = 0
	}
	t := &TCPClient{
		addrs:  append([]string(nil), addrs...),
		client: client,
		clock:  clockOrDefault(clock),
		policy: faults.RetryPolicy{
			Initial: opts.InitialBackoff,
			Max:     opts.MaxBackoff,
			Jitter:  jitter,
		},
		dialTimeout: opts.DialTimeout,
		wake:        make(chan struct{}, 1),
	}
	t.ackTimer.client, t.ackTimer.clock = client, t.clock
	t.wg.Add(1)
	go t.loop()
	return t
}

func (t *TCPClient) loop() {
	defer t.wg.Done()
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	fails := 0 // consecutive dial failures, drives the backoff
	for {
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			return
		}
		t.attempts++
		addr := t.addrs[t.addrIdx]
		t.mu.Unlock()

		conn, err := net.DialTimeout("tcp", addr, t.dialTimeout)
		if err != nil {
			t.mu.Lock()
			if len(t.addrs) > 1 {
				// This replica is unreachable; try the next one. Backoff
				// still grows across consecutive failures so a fully-down
				// pair is not hammered.
				t.addrIdx = (t.addrIdx + 1) % len(t.addrs)
				t.rotations++
			}
			t.mu.Unlock()
			t.sleep(t.policy.JitteredBackoff(fails, rng))
			fails++
			continue
		}
		sender := &tcpSender{conn: conn}
		busyBefore := t.client.Stats().BusyReceived
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.conn = conn
		t.sender = sender
		t.mu.Unlock()

		t.client.OnConnect(sender, t.clock.Now())
		// Corrupt frames are dropped and resynced past, not fatal; only
		// real I/O errors end the session.
		r := wire.NewStreamReader(bufio.NewReaderSize(conn, 64<<10))
		for {
			f, err := r.Next()
			if err != nil {
				break
			}
			t.client.OnFrame(f, t.clock.Now())
			t.ackTimer.arm()
		}
		t.client.OnDisconnect(t.clock.Now())
		conn.Close()
		t.mu.Lock()
		t.conn = nil
		t.sender = nil
		t.mu.Unlock()
		if t.client.Stats().BusyReceived > busyBefore {
			// The server was reachable but refused our Hello (admission
			// control past its session high-water mark). Redialing at once
			// would tight-loop Hello/Busy against an overloaded server, so
			// a refusal pays the same growing backoff as a failed dial.
			// Rotation to a backup address already happened via the
			// engine's OnBusy hook — but that rotation also queued a wake,
			// which must not cut this backoff short.
			select {
			case <-t.wake:
			default:
			}
			t.sleep(t.policy.JitteredBackoff(fails, rng))
			fails++
		} else {
			fails = 0
		}
	}
}

// sleep waits for d or an early wake/close.
func (t *TCPClient) sleep(d time.Duration) {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-t.wake:
	}
}

// DialAttempts returns how many connection attempts have been made. Tests
// poll it with a deadline instead of sleeping fixed intervals.
func (t *TCPClient) DialAttempts() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempts
}

// Rotate abandons the current server and targets the next address in the
// list: the live connection (if any) is severed, which unwinds the read
// loop into a fresh dial. A one-address client just reconnects. Callers
// invoke this when the server is reachable but useless — shedding load, or
// silently partitioned — since dial failures already rotate on their own.
func (t *TCPClient) Rotate() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	if len(t.addrs) > 1 {
		t.addrIdx = (t.addrIdx + 1) % len(t.addrs)
		t.rotations++
	}
	conn := t.conn
	t.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	select {
	case t.wake <- struct{}{}:
	default:
	}
}

// Rotations returns how many times the client has switched addresses.
func (t *TCPClient) Rotations() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rotations
}

// CurrentAddr returns the address the client is currently targeting.
func (t *TCPClient) CurrentAddr() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.addrs[t.addrIdx]
}

// Kick implements ClientTransport.
func (t *TCPClient) Kick() {
	t.client.Pump(t.clock.Now())
	// Also nudge a sleeping reconnect loop.
	select {
	case t.wake <- struct{}{}:
	default:
	}
}

// Connected implements ClientTransport.
func (t *TCPClient) Connected() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.conn != nil
}

// Close implements ClientTransport.
func (t *TCPClient) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conn := t.conn
	t.mu.Unlock()
	t.ackTimer.stop()
	if conn != nil {
		// Leaving on purpose: flush the acks still waiting for a request to
		// ride, or the server keeps their replies until the next Hello.
		t.client.Pump(t.clock.Now())
		conn.Close()
	}
	select {
	case t.wake <- struct{}{}:
	default:
	}
	t.wg.Wait()
	return nil
}

// ErrClosed is returned by operations on a closed transport.
var ErrClosed = errors.New("transport: closed")
