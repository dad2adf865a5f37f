package dnssim

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"itmap/internal/dnswire"
	"itmap/internal/faults"
	"itmap/internal/randx"
	"itmap/internal/simtime"
	"itmap/internal/topology"
)

// WireFrontend answers DNS wire-format packets the way the public
// resolver's PoP front ends would: RD=0 queries with an ECS option are
// cache probes (answered from cache or empty), RD=1 queries resolve through
// the authoritative. It lets the measurement tools exercise the same bytes
// a real prober puts on the wire.
type WireFrontend struct {
	PR   *PublicResolver
	Auth *Authoritative
	// PoP is the front end's point of presence.
	PoP int
	// Source identifies the querying host to the fault layer (per-source
	// throttling); the demo front end serves one prober, so one id.
	Source uint64
}

// Handle processes one query packet and returns the response packet.
// Malformed queries yield a nil response (dropped), like real servers
// ignoring garbage — except a parseable question with a malformed EDNS0
// option, which is answered FORMERR so the prober can tell a codec bug
// from packet loss. With a fault plan set on the resolver, packets can
// also be dropped (nil), refused (throttled source), or answered SERVFAIL.
func (fe *WireFrontend) Handle(query []byte, t simtime.Time) []byte {
	q, err := dnswire.Decode(query)
	if err != nil {
		if q != nil && !q.QR && errors.Is(err, dnswire.ErrBadOption) {
			return mustEncode(&dnswire.Message{
				ID: q.ID, QR: true, RD: q.RD, RA: true,
				Rcode: dnswire.RcodeFormErr,
				QName: q.QName, QType: q.QType, QClass: q.QClass,
			})
		}
		return nil
	}
	if q.QR {
		return nil
	}
	resp := &dnswire.Message{
		ID: q.ID, QR: true, RD: q.RD, RA: true,
		QName: q.QName, QType: q.QType, QClass: q.QClass,
		ECS: q.ECS,
	}
	if pl := fe.PR.FaultPlan(); pl.Enabled() {
		// The query ID is the retry entropy: a retried probe is a new
		// datagram with a new ID and re-rolls per-packet faults.
		key := randx.Hash64(hashString(q.QName), uint64(q.ID))
		switch ferr := pl.ProbeFault(fe.PoP, fe.Source, key, 0, t); {
		case errors.Is(ferr, faults.ErrTimeout):
			return nil // dropped on the floor; the client's deadline fires
		case errors.Is(ferr, faults.ErrThrottled):
			resp.Rcode = dnswire.RcodeRefused
			return mustEncode(resp)
		case errors.Is(ferr, faults.ErrServfail):
			resp.Rcode = dnswire.RcodeServfail
			return mustEncode(resp)
		}
	}
	svc, known := fe.PR.cat.ByDomain(q.QName)
	if !known {
		resp.Rcode = dnswire.RcodeNXDomain
		return mustEncode(resp)
	}
	resp.AnswerTTL = uint32(svc.TTLSeconds)

	var ecsPrefix topology.PrefixID
	haveECS := false
	if q.ECS != nil && q.ECS.Prefix.Addr().Is4() && q.ECS.Prefix.Bits() >= 24 {
		if p, err := topology.PrefixFromAddr(q.ECS.Prefix.Addr()); err == nil {
			ecsPrefix = p
			haveECS = true
		}
	}

	if !q.RD {
		// Non-recursive: a cache probe. Only ECS-scoped entries can
		// be checked per prefix.
		if !haveECS {
			resp.Rcode = dnswire.RcodeRefused
			return mustEncode(resp)
		}
		probe := fe.PR.Prepare(fe.PoP, q.QName, ecsPrefix)
		hit, err := probe.lookup(t)
		if err != nil {
			resp.Rcode = dnswire.RcodeRefused
			return mustEncode(resp)
		}
		if hit {
			fe.answer(resp, q.QName, ecsPrefix, haveECS)
			if resp.ECS != nil {
				resp.ECS.ScopePrefixLen = 24
			}
		}
		// Miss: NOERROR with zero answers — the probe signal.
		return mustEncode(resp)
	}

	// Recursive query: resolve via the authoritative.
	fe.answer(resp, q.QName, ecsPrefix, haveECS)
	if resp.ECS != nil && svc.ECS {
		resp.ECS.ScopePrefixLen = 24
	}
	return mustEncode(resp)
}

func (fe *WireFrontend) answer(resp *dnswire.Message, domain string, client topology.PrefixID, haveECS bool) {
	popCity := fe.PR.PoPs[fe.PoP].City.Coord
	var ans Answer
	var err error
	if haveECS {
		ans, err = fe.Auth.ResolveECS(domain, client, popCity)
	} else {
		ans, err = fe.Auth.ResolveFrom(domain, popCity)
	}
	if err != nil {
		resp.Rcode = dnswire.RcodeNXDomain
		return
	}
	resp.Answers = append(resp.Answers, netipAddr(ans.Prefix))
}

func netipAddr(p topology.PrefixID) netip.Addr { return p.Addr(1) }

func mustEncode(m *dnswire.Message) []byte {
	b, err := m.Encode()
	if err != nil {
		// Responses are built from decoded queries plus fixed fields;
		// encoding cannot fail unless the decoder accepted a name the
		// encoder refuses, which would be a codec bug.
		panic("dnssim: response encode failed: " + err.Error())
	}
	return b
}

// ServeUDP answers queries on conn until the connection is closed or ctx
// semantics are simulated by closing. clock supplies the simulated time of
// each request. It returns the first non-timeout error, or nil when conn
// closes.
func (fe *WireFrontend) ServeUDP(conn net.PacketConn, clock func() simtime.Time) error {
	buf := make([]byte, 4096)
	for {
		n, addr, err := conn.ReadFrom(buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		resp := fe.Handle(buf[:n], clock())
		if resp == nil {
			continue
		}
		if _, err := conn.WriteTo(resp, addr); err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
	}
}

// WireClient issues wire-format queries to a UDP resolver endpoint —
// what a real cache-probing tool does.
type WireClient struct {
	mu sync.Mutex
	//itm:guardedby mu
	conn net.Conn
	//itm:guardedby mu
	id uint16

	// Timeout bounds each round trip; a dropped datagram surfaces as
	// faults.ErrTimeout instead of blocking the exchange forever.
	// Zero means no deadline (the pre-fault-layer behaviour).
	Timeout time.Duration
}

// DialWireClient connects to a resolver front end.
func DialWireClient(addr string) (*WireClient, error) {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return nil, err
	}
	return &WireClient{conn: conn}, nil
}

// Close releases the client socket. It deliberately skips c.mu: Close
// must be able to interrupt a roundTrip blocked in conn.Read (which holds
// the lock), and net.Conn's Close is specified safe for concurrent use.
//
//itmlint:allow lockguard Close interrupts a blocked read; net.Conn.Close is concurrency-safe
func (c *WireClient) Close() error { return c.conn.Close() }

// rcodeError maps response codes onto the typed transient errors so wire
// clients can classify retryability the same way simulated probers do.
func rcodeError(context string, rcode uint8) error {
	switch rcode {
	case dnswire.RcodeServfail:
		return fmt.Errorf("dnssim: %s: %w", context, faults.ErrServfail)
	case dnswire.RcodeRefused:
		// Public resolvers refuse banned sources; retry after backoff.
		return fmt.Errorf("dnssim: %s: %w", context, faults.ErrThrottled)
	default:
		return fmt.Errorf("dnssim: %s: rcode %d", context, rcode)
	}
}

// Probe sends an RD=0 ECS query and reports whether the record was cached.
func (c *WireClient) Probe(domain string, prefix netip.Prefix) (bool, error) {
	resp, err := c.roundTrip(dnswire.NewQuery(c.nextID(), domain, false).WithECS(prefix))
	if err != nil {
		return false, err
	}
	if resp.Rcode != dnswire.RcodeNoError {
		return false, rcodeError("probe refused", resp.Rcode)
	}
	return len(resp.Answers) > 0, nil
}

// Resolve sends a recursive ECS query and returns the answer addresses.
func (c *WireClient) Resolve(domain string, prefix netip.Prefix) ([]netip.Addr, error) {
	resp, err := c.roundTrip(dnswire.NewQuery(c.nextID(), domain, true).WithECS(prefix))
	if err != nil {
		return nil, err
	}
	if resp.Rcode != dnswire.RcodeNoError {
		return nil, rcodeError("resolution failed", resp.Rcode)
	}
	return resp.Answers, nil
}

func (c *WireClient) nextID() uint16 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.id++
	return c.id
}

func (c *WireClient) roundTrip(q *dnswire.Message) (*dnswire.Message, error) {
	raw, err := q.Encode()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.Timeout > 0 {
		// A kernel socket deadline is inherently wall-clock: this client
		// talks to a real UDP endpoint, not the simulated substrate.
		//itmlint:allow nodeterm real socket deadline needs the wall clock
		if err := c.conn.SetDeadline(time.Now().Add(c.Timeout)); err != nil {
			return nil, err
		}
	}
	if _, err := c.conn.Write(raw); err != nil {
		return nil, err
	}
	buf := make([]byte, 4096)
	n, err := c.conn.Read(buf)
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			// The datagram (or its answer) was dropped.
			return nil, fmt.Errorf("dnssim: read: %w", faults.ErrTimeout)
		}
		return nil, err
	}
	resp, err := dnswire.Decode(buf[:n])
	if err != nil {
		return nil, err
	}
	if resp.ID != q.ID {
		return nil, errors.New("dnssim: response ID mismatch")
	}
	return resp, nil
}
