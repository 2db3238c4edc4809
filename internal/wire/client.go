package wire

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"datagridflow/internal/codec"
	"datagridflow/internal/dgferr"
	"datagridflow/internal/dgl"
	"datagridflow/internal/obs"
	"datagridflow/internal/vdata"
)

// Client is a connection to one matrix server. Every session opens
// with the hello exchange — run explicitly by Hello, or by the client
// itself before its first request — after which any number of
// goroutines may issue requests concurrently over the one connection,
// each completed through its own channel when the matching response id
// arrives.
//
// Server-reported failures come back as typed errors: the server
// encodes its error class on the wire (docs/WIRE.md, "Typed errors")
// and the client rebuilds it, so errors.Is against the datagridflow
// sentinels (ErrNotFound, ErrRetryExhausted, ...) works across the
// network. A connection lost with requests in flight fails every one
// of them with a resource-down class error — never a hang.
type Client struct {
	// addr is the dial target, retained so Redial can re-establish the
	// session after a connection drop.
	addr string
	// timeout bounds each request in nanoseconds (atomic: SetTimeout
	// may race with in-flight round trips).
	timeout atomic.Int64

	// writeMu serializes frame writes; during the hello exchange it
	// spans the whole round trip (write + read).
	writeMu sync.Mutex

	mu     sync.Mutex
	conn   net.Conn
	closed bool
	// helloed is set once the hello exchange on conn succeeded: the
	// session speaks mux framing and the read loop is running.
	helloed bool
	nextID  uint64
	pending map[uint64]chan muxReply
	readErr error // terminal until Redial: set once the mux read loop exits
	// token is the tenant bearer token attached to every submit, batch,
	// delegate and route frame (SetToken, docs/TENANCY.md). tenant
	// records the identity the server verified in the hello reply.
	token  string
	tenant string
}

// muxReply is one matched response delivered to a pipelined waiter.
type muxReply struct {
	kind    byte
	payload []byte
}

// Dial connects to a matrix server.
func Dial(addr string) (*Client, error) {
	return DialContext(context.Background(), addr)
}

// DialContext connects to a matrix server honouring the context's
// deadline and cancellation.
func DialContext(ctx context.Context, addr string) (*Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	return &Client{addr: addr, conn: conn}, nil
}

// SetTimeout bounds every subsequent request (write + read) by d on the
// wall clock; zero restores unbounded requests. Per-request contexts
// (Submit's ctx) compose with it — whichever limit is tighter wins.
// Safe to call concurrently with in-flight requests.
func (c *Client) SetTimeout(d time.Duration) { c.timeout.Store(int64(d)) }

// SetToken attaches a tenant bearer token (tenant.Authority.Mint,
// docs/TENANCY.md) to every subsequent submit, batch, delegate and
// route frame, and offers it during Hello so the server can verify the
// session identity up front. An empty string detaches. Servers without
// a token authority ignore it.
func (c *Client) SetToken(tok string) {
	c.mu.Lock()
	c.token = tok
	c.mu.Unlock()
}

// Token returns the tenant bearer token set with SetToken.
func (c *Client) Token() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.token
}

// Tenant returns the identity the server verified during Hello, or ""
// when no token was offered (or the server has no token authority).
func (c *Client) Tenant() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tenant
}

// Close closes the connection. Pipelined requests still in flight fail
// with a cancelled-class error.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	conn := c.conn
	c.mu.Unlock()
	return conn.Close()
}

// current returns the live connection. Frame I/O additionally holds
// writeMu, which Redial also takes — so a round trip never straddles a
// connection swap.
func (c *Client) current() net.Conn {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn
}

// Muxed reports whether the hello exchange completed on this
// connection, switching it to mux framing.
func (c *Client) Muxed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.helloed
}

// Binary reports whether the session carries binary codec payloads —
// true exactly when the hello exchange completed, like Muxed.
func (c *Client) Binary() bool { return c.Muxed() }

// roundTrip performs one request-response on the mux session, running
// the hello exchange first when this connection has not had one. It
// registers a completion channel keyed by a fresh request id, writes
// the frame, and waits. Cancellation abandons the request (the
// response, if it ever arrives, is discarded) without disturbing other
// in-flight requests.
func (c *Client) roundTrip(ctx context.Context, kind byte, payload []byte) (byte, []byte, error) {
	for {
		if err := c.ensureHello(ctx); err != nil {
			return 0, nil, err
		}
		c.mu.Lock()
		if c.helloed {
			break // c.mu stays held for the registration below
		}
		c.mu.Unlock() // a Redial replaced the session in between: retry
	}
	if c.readErr != nil {
		err := c.readErr
		c.mu.Unlock()
		return 0, nil, err
	}
	c.nextID++
	id := c.nextID
	ch := make(chan muxReply, 1)
	c.pending[id] = ch
	c.mu.Unlock()
	if d := time.Duration(c.timeout.Load()); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}

	c.writeMu.Lock()
	err := WriteMuxFrame(c.current(), kind, id, payload)
	c.writeMu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		rerr := c.readErr
		c.mu.Unlock()
		if rerr != nil {
			return 0, nil, rerr
		}
		return 0, nil, c.ctxErr(ctx, err)
	}
	select {
	case r, ok := <-ch:
		if !ok {
			// Channel closed by failAll: the connection died.
			c.mu.Lock()
			rerr := c.readErr
			c.mu.Unlock()
			return 0, nil, rerr
		}
		return r.kind, r.payload, nil
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return 0, nil, fmt.Errorf("%w: %v", dgferr.ErrCancelled, ctx.Err())
	}
}

// ensureHello runs the hello exchange unless this connection already
// completed one.
func (c *Client) ensureHello(ctx context.Context) error {
	if c.Muxed() {
		return nil
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.Muxed() {
		return nil // another request completed the exchange first
	}
	_, err := c.helloLocked(ctx)
	return err
}

// upgrade marks the session helloed and starts the response reader.
// Caller holds writeMu (so no request can be written between the hello
// reply and the reader start).
func (c *Client) upgrade() {
	conn := c.current()
	// Clear any deadline left by the hello round trip: mux reads block
	// indefinitely and complete per-request via completion channels.
	_ = conn.SetDeadline(time.Time{})
	c.mu.Lock()
	c.helloed = true
	c.pending = make(map[uint64]chan muxReply)
	c.mu.Unlock()
	go c.readLoop(conn)
}

// readLoop is the mux-mode response pump: it matches response ids to
// pending requests until the connection dies, then fails everything
// still in flight. It is pinned to the connection it was started for:
// after a Redial the stale loop's exit must not poison the fresh
// session, so failure is scoped through failAllFor.
func (c *Client) readLoop(conn net.Conn) {
	for {
		kind, id, payload, err := ReadMuxFrame(conn)
		if err != nil {
			c.failAllFor(conn, err)
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if ok {
			ch <- muxReply{kind: kind, payload: payload} // buffered; never blocks
		}
	}
}

// failAllFor records the terminal connection error and fails every
// in-flight request with a typed error: cancelled if the client closed
// the connection itself, resource-down (transient — retry after Redial
// or on a fresh connection) otherwise. A loop whose connection has
// already been replaced by Redial is stale: its error belongs to the
// old session and is dropped.
func (c *Client) failAllFor(conn net.Conn, cause error) {
	c.mu.Lock()
	if c.conn != conn {
		c.mu.Unlock()
		return
	}
	if c.readErr == nil {
		if c.closed {
			c.readErr = fmt.Errorf("%w: wire: client closed", dgferr.ErrCancelled)
		} else {
			c.readErr = fmt.Errorf("%w: wire: connection lost: %v", dgferr.ErrResourceDown, cause)
		}
	}
	pending := c.pending
	c.pending = make(map[uint64]chan muxReply)
	c.mu.Unlock()
	for _, ch := range pending {
		close(ch)
	}
}

// Redial tears down the dead connection and dials the server again,
// running the hello exchange on the new connection before releasing it
// to callers: a session belongs to a connection, not the client. In-
// flight requests on the old session fail with their original
// resource-down error. Safe to call concurrently; requests issued
// during the redial block until it completes.
func (c *Client) Redial(ctx context.Context) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("%w: wire: client closed", dgferr.ErrCancelled)
	}
	old := c.conn
	addr := c.addr
	c.mu.Unlock()
	if addr == "" {
		return fmt.Errorf("%w: wire: client was not dialed (no address to redial)", dgferr.ErrInvalid)
	}
	_ = old.Close() // unblocks a stale read loop; its exit is scoped to old
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return fmt.Errorf("%w: wire: redial %s: %v", dgferr.ErrResourceDown, addr, err)
	}
	c.mu.Lock()
	c.conn = conn
	c.helloed = false
	c.pending = nil
	c.readErr = nil
	c.mu.Unlock()
	_, err = c.helloLocked(ctx)
	return err
}

// ctxErr maps an I/O error caused by context cancellation back to the
// context's error, wrapped in the cancelled class.
func (c *Client) ctxErr(ctx context.Context, err error) error {
	if ctx.Err() == nil {
		// The connection deadline derived from the context can fire a
		// beat before the context's own timer; if the context is at its
		// deadline, wait for it to notice so the caller sees the
		// cancellation class rather than a raw i/o timeout.
		if d, ok := ctx.Deadline(); ok && time.Until(d) < time.Millisecond {
			select {
			case <-ctx.Done():
			case <-time.After(5 * time.Millisecond):
			}
		}
	}
	if ctx.Err() != nil {
		return fmt.Errorf("%w: %v", dgferr.ErrCancelled, ctx.Err())
	}
	return err
}

// submitOne is the single-request transport core of Submit.
func (c *Client) submitOne(ctx context.Context, req *dgl.Request) (*dgl.Response, error) {
	if tok := c.Token(); tok != "" && req.Token == "" {
		// Attach the session token without mutating the caller's request.
		stamped := *req
		stamped.Token = tok
		req = &stamped
	}
	enc := codec.GetEncoder()
	defer codec.PutEncoder(enc)
	codec.AppendRequest(enc, req)
	kind, payload, err := c.roundTrip(ctx, KindDGL, enc.Bytes())
	if err != nil {
		return nil, err
	}
	if kind != KindDGL {
		return nil, errors.New("wire: unexpected frame kind in response")
	}
	return codec.DecodeResponse(payload)
}

// submitBatch is the batch transport core of Submit: N requests in one
// KindBatch round trip. The reply is positional: item i's response
// answers reqs[i], with per-item failures carried in each response's
// Error field (decode with dgferr.Decode). A transport failure aborts
// the whole call with a typed error. user names the identity the
// server's admission scheduler accounts the batch to.
func (c *Client) submitBatch(ctx context.Context, user string, reqs []*dgl.Request) ([]*dgl.Response, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	// Each item is encoded into a pooled scratch encoder and streamed
	// straight into the envelope — one copy per item. Collecting the
	// items first would copy every payload twice, which dominates batch
	// CPU once items carry multi-kilobyte variable sets.
	enc := codec.GetEncoder()
	defer codec.PutEncoder(enc)
	appendBatchStart(enc, user, c.Token())
	ie := codec.GetEncoder()
	for _, req := range reqs {
		ie.Reset()
		codec.AppendRequest(ie, req)
		appendBatchItem(enc, ie.Bytes())
	}
	codec.PutEncoder(ie)
	kind, resp, err := c.roundTrip(ctx, KindBatch, enc.Bytes())
	if err != nil {
		return nil, err
	}
	if kind != KindBatch {
		return nil, errors.New("wire: unexpected frame kind in batch response")
	}
	ok, errText, docs, err := decodeBatchResult(resp)
	if err != nil {
		return nil, fmt.Errorf("wire: bad batch reply: %w", err)
	}
	if !ok {
		return nil, dgferr.Decode(errText)
	}
	if len(docs) != len(reqs) {
		return nil, fmt.Errorf("wire: batch reply has %d items, want %d", len(docs), len(reqs))
	}
	out := make([]*dgl.Response, len(reqs))
	for i, doc := range docs {
		r, err := codec.DecodeResponse(doc)
		if err != nil {
			return nil, fmt.Errorf("wire: batch reply item %d: %w", i, err)
		}
		out[i] = r
	}
	return out, nil
}

// SubmitFlow submits a flow synchronously and returns the final status.
func (c *Client) SubmitFlow(user string, flow dgl.Flow) (*dgl.Response, error) {
	return c.submitOne(context.Background(), dgl.NewRequest(user, "", flow))
}

// RunFlow submits a flow synchronously and returns its final status
// tree, decoding a server-side failure into a typed error — the
// convenience entry point for "run this and tell me, typed, why it
// failed".
func (c *Client) RunFlow(ctx context.Context, user string, flow dgl.Flow) (*dgl.FlowStatus, error) {
	resp, err := c.submitOne(ctx, dgl.NewRequest(user, "", flow))
	if err != nil {
		return nil, err
	}
	if resp.Error != "" {
		return resp.Status, dgferr.Decode(resp.Error)
	}
	if resp.Status == nil {
		return nil, errors.New("wire: empty response")
	}
	return resp.Status, nil
}

// Status queries the status of an execution, flow or step id.
func (c *Client) Status(user, id string, detail bool) (*dgl.FlowStatus, error) {
	resp, err := c.submitOne(context.Background(), dgl.NewStatusRequest(user, id, detail))
	if err != nil {
		return nil, err
	}
	if resp.Error != "" {
		return nil, dgferr.Decode(resp.Error)
	}
	if resp.Status == nil {
		return nil, errors.New("wire: empty status response")
	}
	return resp.Status, nil
}

// control sends one control verb.
func (c *Client) control(op, id string) (ControlResult, error) {
	return c.controlMsg(context.Background(), Control{Op: op, ID: id})
}

func (c *Client) controlMsg(ctx context.Context, msg Control) (ControlResult, error) {
	enc := codec.GetEncoder()
	defer codec.PutEncoder(enc)
	appendControl(enc, &msg)
	kind, payload, err := c.roundTrip(ctx, KindControl, enc.Bytes())
	if err != nil {
		return ControlResult{}, err
	}
	if kind != KindControl {
		return ControlResult{}, errors.New("wire: unexpected frame kind in response")
	}
	res, err := decodeControlResult(payload)
	if err != nil {
		return ControlResult{}, err
	}
	if !res.OK && res.Error != "" {
		return res, dgferr.Decode(res.Error)
	}
	return res, nil
}

// Hello runs the hello exchange: it offers the client's version (and
// its token, if set) and returns the server's. Servers refuse a major
// mismatch — and a forged or expired token — with a typed error
// (errors.Is(err, dgferr.ErrProtocol) / dgferr.ErrAuth), leaving the
// connection waiting for another hello. A successful exchange switches
// the session to mux framing with binary codec payloads. Calling Hello
// is optional: the client runs the exchange itself before its first
// request. On a session that already completed it, Hello re-sends the
// verb over mux, re-verifying the token.
func (c *Client) Hello() (serverProto string, err error) {
	c.writeMu.Lock()
	if !c.Muxed() {
		proto, err := c.helloLocked(context.Background())
		c.writeMu.Unlock()
		return proto, err
	}
	c.writeMu.Unlock()
	res, err := c.controlMsg(context.Background(), c.helloMsg())
	if err != nil {
		return "", err
	}
	c.mu.Lock()
	c.tenant = res.Tenant
	c.mu.Unlock()
	return res.Proto, nil
}

// helloMsg is the hello verb offering this client's version and token.
func (c *Client) helloMsg() Control {
	return Control{Op: "hello", Proto: ProtoVersion(ProtoMajor, ProtoMinor), Token: c.Token()}
}

// helloLocked runs the hello exchange on the plain framing; the caller
// holds writeMu and the session has not completed a hello. The context
// and the client timeout bound the round trip.
func (c *Client) helloLocked(ctx context.Context) (serverProto string, err error) {
	c.mu.Lock()
	rerr := c.readErr
	c.mu.Unlock()
	if rerr != nil {
		return "", rerr // an earlier exchange severed this connection
	}
	data, err := json.Marshal(c.helloMsg())
	if err != nil {
		return "", err
	}
	conn := c.current()
	deadline := time.Time{}
	if d := time.Duration(c.timeout.Load()); d > 0 {
		deadline = time.Now().Add(d)
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	_ = conn.SetDeadline(deadline) // zero clears
	stop := context.AfterFunc(ctx, func() {
		// Cancellation interrupts in-flight I/O by expiring the deadline.
		_ = conn.SetDeadline(time.Now())
	})
	// Once the hello frame is written, an exchange that does not end in
	// a parsed reply leaves the two ends out of step: the server may
	// have answered and switched to mux framing. Such a connection is
	// severed, so the session needs a Redial.
	sever := func(err error) (string, error) {
		stop()
		c.failAllFor(conn, err)
		_ = conn.Close()
		return "", err
	}
	if err := WriteFrame(conn, KindControl, data); err != nil {
		return sever(c.ctxErr(ctx, err))
	}
	kind, payload, err := ReadFrame(conn)
	if err != nil {
		return sever(c.ctxErr(ctx, err))
	}
	if !stop() {
		// The context fired after the reply arrived: its deadline may
		// already be on the connection, or be set after upgrade clears it.
		return sever(c.ctxErr(ctx, context.Cause(ctx)))
	}
	if kind != KindControl {
		return sever(fmt.Errorf("%w: wire: unexpected frame kind %d in hello response", dgferr.ErrProtocol, kind))
	}
	var res ControlResult
	if err := json.Unmarshal(payload, &res); err != nil {
		return sever(fmt.Errorf("%w: wire: bad hello reply: %v", dgferr.ErrProtocol, err))
	}
	if !res.OK {
		// A refused hello leaves the server waiting for another one.
		if res.Error == "" {
			return "", fmt.Errorf("%w: hello refused", dgferr.ErrProtocol)
		}
		return "", dgferr.Decode(res.Error)
	}
	if major, _, err := ParseProtoVersion(res.Proto); err != nil || major != ProtoMajor {
		return sever(fmt.Errorf("%w: server speaks %q, client speaks %s",
			dgferr.ErrProtocol, res.Proto, ProtoVersion(ProtoMajor, ProtoMinor)))
	}
	c.mu.Lock()
	c.tenant = res.Tenant
	c.mu.Unlock()
	c.upgrade()
	return res.Proto, nil
}

// Delegate asks the server to execute a subflow on this peer's behalf
// and waits for its final status. A non-nil result with res.OK false
// means the remote ran (or refused) the work and reported a typed
// failure — err carries the decoded class and res.ID/res.Status what
// the remote knows. A nil result means transport failure: the caller
// cannot know whether the remote ran anything (the at-least-once caveat
// in docs/FEDERATION.md).
func (c *Client) Delegate(ctx context.Context, d Delegate) (*DelegateResult, error) {
	enc := codec.GetEncoder()
	defer codec.PutEncoder(enc)
	appendDelegate(enc, &d)
	kind, resp, err := c.roundTrip(ctx, KindDelegate, enc.Bytes())
	if err != nil {
		return nil, err
	}
	if kind != KindDelegate {
		return nil, errors.New("wire: unexpected frame kind in delegate response")
	}
	res, err := decodeDelegateResult(resp)
	if err != nil {
		return nil, fmt.Errorf("wire: bad delegate reply: %w", err)
	}
	if !res.OK {
		return &res, dgferr.Decode(res.Error)
	}
	return &res, nil
}

// Route hands a submission to the peer that owns its shard and waits
// for the acceptance outcome. A result with res.NotOwner set means the
// target no longer holds the shard (ownership moved between the
// routing decision and delivery) and res.Owner names where it went —
// the caller re-resolves and retries. A transport failure returns a
// nil result; the caller cannot know whether the remote accepted.
func (c *Client) Route(ctx context.Context, rt Route) (*RouteResult, error) {
	enc := codec.GetEncoder()
	defer codec.PutEncoder(enc)
	appendRoute(enc, &rt)
	kind, resp, err := c.roundTrip(ctx, KindRoute, enc.Bytes())
	if err != nil {
		return nil, err
	}
	if kind != KindRoute {
		return nil, errors.New("wire: unexpected frame kind in route response")
	}
	res, err := decodeRouteResult(resp)
	if err != nil {
		return nil, fmt.Errorf("wire: bad route reply: %w", err)
	}
	if !res.OK && res.Error != "" {
		return &res, dgferr.Decode(res.Error)
	}
	return &res, nil
}

// Replicate delivers one replication frame — an append block of the
// local store's record stream, or a catch-up snapshot — to a follower
// and returns its ack. A result with NeedSnapshot set means the
// follower is missing records below the frame's sequence; the sender
// ships a snapshot and retries. A transport failure returns a nil
// result.
func (c *Client) Replicate(ctx context.Context, f Replicate) (*ReplicateResult, error) {
	enc := codec.GetEncoder()
	defer codec.PutEncoder(enc)
	appendReplicate(enc, &f)
	kind, resp, err := c.roundTrip(ctx, KindReplicate, enc.Bytes())
	if err != nil {
		return nil, err
	}
	if kind != KindReplicate {
		return nil, errors.New("wire: unexpected frame kind in replicate response")
	}
	res, err := decodeReplicateResult(resp)
	if err != nil {
		return nil, fmt.Errorf("wire: bad replicate reply: %w", err)
	}
	if res.Error != "" {
		return &res, dgferr.Decode(res.Error)
	}
	return &res, nil
}

// Repl retrieves the server's replication posture — ack mode, follower
// acknowledgement positions and standby sources — over the control
// extension. Requires a replicating server.
func (c *Client) Repl() (*ReplInfo, error) {
	res, err := c.control("repl", "")
	if err != nil {
		return nil, err
	}
	if res.Repl == nil {
		return nil, errors.New("wire: empty repl reply")
	}
	return res.Repl, nil
}

// Tenants retrieves the server's tenancy posture — whether tenancy and
// token auth are enabled, the registered-tenant count, and up to limit
// per-tenant usage rows ordered by activity (0 applies the server
// default).
func (c *Client) Tenants(limit int) (*TenantsInfo, error) {
	res, err := c.controlMsg(context.Background(), Control{Op: "tenants", Limit: limit})
	if err != nil {
		return nil, err
	}
	if res.Tenants == nil {
		return nil, errors.New("wire: empty tenants reply")
	}
	return res.Tenants, nil
}

// vdataMsg sends one "vdata" sub-operation, carrying the session token
// and the claimed tenant identity for per-tenant re-verification.
func (c *Client) vdataMsg(msg Control) (*VdataInfo, error) {
	msg.Op = "vdata"
	if msg.Token == "" {
		msg.Token = c.Token()
	}
	res, err := c.controlMsg(context.Background(), msg)
	if err != nil {
		return nil, err
	}
	if res.Vdata == nil {
		return nil, errors.New("wire: empty vdata reply")
	}
	return res.Vdata, nil
}

// VdataStats retrieves the server's derivation-catalog shape; Enabled
// false means no catalog is attached there.
func (c *Client) VdataStats() (*VdataInfo, error) {
	return c.vdataMsg(Control{Sub: "stats"})
}

// VdataLookup resolves a derivation key in the server's catalog under
// the given tenant identity. ok false with a nil error means the server
// holds no such derivation (or holds it under another tenant).
func (c *Client) VdataLookup(user, key string) (*vdata.Entry, bool, error) {
	info, err := c.vdataMsg(Control{Sub: "lookup", User: user, Key: key})
	if err != nil {
		return nil, false, err
	}
	if !info.Found || info.Entry == nil {
		return nil, false, nil
	}
	return info.Entry, true, nil
}

// VdataPublish records a derivation in the server's catalog under the
// caller's resolved tenant (the entry's own Tenant field is overridden
// server-side — no cross-tenant writes).
func (c *Client) VdataPublish(user string, ent vdata.Entry) error {
	raw, err := json.Marshal(ent)
	if err != nil {
		return err
	}
	_, err = c.vdataMsg(Control{Sub: "publish", User: user, Data: string(raw)})
	return err
}

// VdataInvalidate drops the tenant's derivations matching target — a
// derivation key or an output path — returning how many were removed.
func (c *Client) VdataInvalidate(user, target string) (int, error) {
	info, err := c.vdataMsg(Control{Sub: "invalidate", User: user, Key: target})
	if err != nil {
		return 0, err
	}
	return info.Removed, nil
}

// Owner asks the server which peer owns a flow or execution id,
// resolved from tracked accepts, owner-prefixed ids, or the shard
// ring (OwnerInfo.Source says which). Requires a sharded server.
func (c *Client) Owner(id string) (*OwnerInfo, error) {
	res, err := c.control("owner", id)
	if err != nil {
		return nil, err
	}
	if res.Owner == nil {
		return nil, fmt.Errorf("%w: server reported no owner for %s", dgferr.ErrNotFound, id)
	}
	return res.Owner, nil
}

// Pause suspends an execution on the server.
func (c *Client) Pause(id string) error {
	_, err := c.control("pause", id)
	return err
}

// Resume continues a paused execution.
func (c *Client) Resume(id string) error {
	_, err := c.control("resume", id)
	return err
}

// Cancel stops an execution.
func (c *Client) Cancel(id string) error {
	_, err := c.control("cancel", id)
	return err
}

// Restart re-runs a terminal execution, returning the new execution id.
func (c *Client) Restart(id string) (string, error) {
	res, err := c.control("restart", id)
	if err != nil {
		return "", err
	}
	return res.ID, nil
}

// List returns the server's tracked executions.
func (c *Client) List() ([]ExecutionInfo, error) {
	res, err := c.control("list", "")
	if err != nil {
		return nil, err
	}
	return res.Executions, nil
}

// StoreStats retrieves the server's flow-state store summary (segment
// count, snapshot lag, passivated/resident counts) over the control
// extension.
func (c *Client) StoreStats() (*StoreInfo, error) {
	res, err := c.control("store", "")
	if err != nil {
		return nil, err
	}
	if res.Store == nil {
		return nil, errors.New("wire: empty store reply")
	}
	return res.Store, nil
}

// Compact asks the server to compact its flow-state store, returning
// the post-compaction summary with the compaction's record counts.
func (c *Client) Compact() (*StoreInfo, error) {
	res, err := c.control("compact", "")
	if err != nil {
		return nil, err
	}
	if res.Store == nil {
		return nil, errors.New("wire: empty compact reply")
	}
	return res.Store, nil
}

// Metrics retrieves the server engine's metrics snapshot over the
// control extension — the wire twin of the -metrics-addr HTTP endpoint.
func (c *Client) Metrics() (*obs.Snapshot, error) {
	res, err := c.control("metrics", "")
	if err != nil {
		return nil, err
	}
	if len(res.Metrics) == 0 {
		return nil, errors.New("wire: empty metrics reply")
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(res.Metrics, &snap); err != nil {
		return nil, fmt.Errorf("wire: bad metrics reply: %w", err)
	}
	return &snap, nil
}
