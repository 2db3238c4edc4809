package wire

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"datagridflow/internal/codec"
	"datagridflow/internal/dgferr"
	"datagridflow/internal/dgl"
	"datagridflow/internal/fault"
	"datagridflow/internal/matrix"
	"datagridflow/internal/provenance"
	"datagridflow/internal/scheduler"
	"datagridflow/internal/store"
	"datagridflow/internal/tenant"
	"datagridflow/internal/vdata"
)

// Frame header overheads counted by the byte metrics.
const (
	// frameHeaderLen is the plain header of the hello frame (1-byte kind
	// + 4-byte length).
	frameHeaderLen = 5
	// muxHeaderLen adds the 8-byte request id of mux framing.
	muxHeaderLen = 13
)

// muxConnWindow bounds the frames one multiplexed connection may have
// outstanding (decoded or queued for admission) before the server stops
// reading from it — per-connection backpressure, distinct from the
// global admission pool.
const muxConnWindow = 256

// kindName labels metrics by frame kind.
func kindName(kind byte) string {
	switch kind {
	case KindDGL:
		return "dgl"
	case KindControl:
		return "control"
	case KindBatch:
		return "batch"
	case KindDelegate:
		return "delegate"
	case KindRoute:
		return "route"
	case KindReplicate:
		return "replicate"
	default:
		return "unknown"
	}
}

// ServerConfig tunes a wire server.
type ServerConfig struct {
	// MaxInflight bounds concurrently executing DGL/batch requests
	// across all connections (the worker pool the admission scheduler
	// feeds). Default 64. Control verbs bypass admission: pause and
	// cancel must work on a saturated server.
	MaxInflight int
	// MaxUserQueue bounds waiters queued per user beyond the pool;
	// requests past it are rejected with a capacity-class error.
	// Default 256.
	MaxUserQueue int
	// DelegateGrace bounds how long a cancelled delegation (client gone
	// or server closing) waits for its execution to unwind before the
	// handler returns — the deterministic-shutdown budget for in-flight
	// delegations. Default 3s.
	DelegateGrace time.Duration
}

// Server exposes a matrix engine over the framed TCP protocol. A
// connection first completes the hello exchange on the plain framing;
// afterwards frames carry request ids, the server dispatches each to a
// bounded worker pool behind a per-user fair admission scheduler
// (internal/scheduler.Admission), and responses are written as they
// complete, in any order.
type Server struct {
	engine *matrix.Engine
	cfg    ServerConfig
	adm    *scheduler.Admission
	// statusRouter, when set (by a Peer, before Listen), answers DGL
	// status queries — routing ids owned by other peers across the
	// network. Plain servers leave it nil and answer from the engine.
	statusRouter func(user, id string, detail bool) (*dgl.FlowStatus, error)
	// submitRouter, when set (by a sharded Peer, before Listen), owns
	// flow submissions entirely: it routes to the shard owner or accepts
	// locally, returning the response to send. Plain servers leave it
	// nil and submit to the engine directly.
	submitRouter func(req *dgl.Request) *dgl.Response
	// routeHandler, when set (by a sharded Peer, before Listen),
	// services KindRoute frames — the terminal hop of shard routing.
	routeHandler func(rt Route) RouteResult
	// ownerResolver, when set (by a sharded Peer, before Listen),
	// services the "owner" control verb.
	ownerResolver func(id string) (*OwnerInfo, error)
	// replHandler, when set (by a replicating Peer, before Listen),
	// services KindReplicate frames — applying an owner's record stream
	// into this peer's replica stores.
	replHandler func(f Replicate) ReplicateResult
	// replResolver, when set (by a replicating Peer, before Listen),
	// services the "repl" control verb.
	replResolver func() *ReplInfo
	// Tenancy plane (docs/TENANCY.md), attached before Listen via
	// SetTenancy: auth verifies bearer tokens, tenants holds quotas and
	// scheduling weights, requireAuth rejects untokened submissions.
	// All nil/false means tenancy off.
	auth        *tenant.Authority
	tenants     *tenant.Registry
	requireAuth bool

	mu          sync.Mutex
	listener    net.Listener
	conns       map[net.Conn]bool
	closed      bool
	wg          sync.WaitGroup
	fault       *fault.Injector
	faultTarget string
}

// NewServer wraps an engine with default configuration.
func NewServer(engine *matrix.Engine) *Server {
	return NewServerConfig(engine, ServerConfig{})
}

// NewServerConfig wraps an engine with explicit configuration.
func NewServerConfig(engine *matrix.Engine, cfg ServerConfig) *Server {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 64
	}
	if cfg.MaxUserQueue <= 0 {
		cfg.MaxUserQueue = 256
	}
	if cfg.DelegateGrace <= 0 {
		cfg.DelegateGrace = 3 * time.Second
	}
	return &Server{
		engine: engine,
		cfg:    cfg,
		adm:    scheduler.NewAdmission(cfg.MaxInflight, cfg.MaxUserQueue, engine.Obs()),
		conns:  make(map[net.Conn]bool),
	}
}

// Engine returns the wrapped engine.
func (s *Server) Engine() *matrix.Engine { return s.engine }

// SetTenancy attaches the tenancy plane (docs/TENANCY.md) — call before
// Listen. auth, when non-nil, verifies bearer tokens on hello and every
// submit/batch/delegate/route payload; reg, when non-nil, supplies
// per-tenant quotas and the admission scheduler's weights and is also
// installed as the engine's flow governor (flows-in-flight and
// store-byte enforcement); require rejects untokened submissions
// instead of admitting them under the anonymous tenant.
func (s *Server) SetTenancy(auth *tenant.Authority, reg *tenant.Registry, require bool) {
	s.auth, s.tenants, s.requireAuth = auth, reg, require
	if reg != nil {
		s.adm.SetWeightFn(reg.Weight)
		s.engine.SetGovernor(reg)
	}
}

// tenancyOn reports whether any part of the tenancy plane is attached.
func (s *Server) tenancyOn() bool { return s.auth != nil || s.tenants != nil }

// TenantRegistry returns the quota registry attached with SetTenancy,
// or nil on an untenanted server. The federation layer consults it for
// delegation-slot quotas at the offer point.
func (s *Server) TenantRegistry() *tenant.Registry { return s.tenants }

// resolveTenant derives the accounting identity of a request from its
// bearer token and claimed user name. With an authority attached, a
// present token must verify (forged or expired tokens are always
// rejected, tenant_auth_failures_total) and must agree with a non-empty
// claimed user; an absent token falls back to the claimed identity —
// anonymous-but-admitted, unless the server requires auth. Without an
// authority, tokens are ignored and the claimed identity stands. The
// empty identity canonicalizes to the reserved anonymous tenant.
func (s *Server) resolveTenant(token, user string) (string, error) {
	if s.auth == nil {
		return tenant.Canonical(user), nil
	}
	if token == "" {
		if s.requireAuth {
			s.engine.Obs().Counter("tenant_auth_failures_total").Inc()
			return "", fmt.Errorf("%w: server requires a tenant token", dgferr.ErrAuth)
		}
		return tenant.Canonical(user), nil
	}
	id, err := s.auth.Verify(token)
	if err != nil {
		s.engine.Obs().Counter("tenant_auth_failures_total").Inc()
		return "", err
	}
	if user != "" && user != id {
		s.engine.Obs().Counter("tenant_auth_failures_total").Inc()
		return "", fmt.Errorf("%w: token tenant %q does not match user %q", dgferr.ErrAuth, id, user)
	}
	return id, nil
}

// Admission returns the server's admission scheduler.
func (s *Server) Admission() *scheduler.Admission { return s.adm }

// SetFault attaches a fault-injection plan to this server under the
// given target name: PeerCrash and ConnDrop events against that target
// sever connections mid-session (a simulated matrixd crash), Latency
// events delay frame handling. Pass nil to detach.
func (s *Server) SetFault(in *fault.Injector, target string) {
	if in != nil {
		in.SetObs(s.engine.Obs())
	}
	s.mu.Lock()
	s.fault, s.faultTarget = in, target
	s.mu.Unlock()
}

// connFault evaluates the server's fault plan for one inbound frame,
// charging induced latency to the clock; drop severs the connection.
func (s *Server) connFault() (drop bool) {
	s.mu.Lock()
	in, target := s.fault, s.faultTarget
	s.mu.Unlock()
	if in == nil {
		return false
	}
	d, lat := in.ConnFault(target)
	if lat > 0 {
		s.engine.Clock().Sleep(lat)
	}
	return d
}

// Listen starts accepting on addr ("127.0.0.1:0" for an ephemeral port)
// and returns the bound address. Serving happens on background
// goroutines; call Close to stop.
func (s *Server) Listen(addr string) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("wire: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return "", errors.New("wire: server closed")
	}
	s.listener = l
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(l)
	return l.Addr().String(), nil
}

func (s *Server) acceptLoop(l net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := l.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// serveConn serves one connection: the hello exchange on the plain
// framing, then the mux loop.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	o := s.engine.Obs()
	o.Counter("wire_connections_total").Inc()
	o.Gauge("wire_connections_open").Add(1)
	defer func() {
		conn.Close()
		o.Gauge("wire_connections_open").Add(-1)
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	remote := conn.RemoteAddr().String()
	if !s.handshake(conn, remote) {
		return
	}
	// ctx covers admission waits on this connection; cancelled when the
	// serve loop exits (connection gone or server closing).
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.serveMux(ctx, conn, remote)
}

// handshake answers hello frames on the plain framing until one
// succeeds, reporting whether the session may proceed to mux framing.
// A refused hello (major mismatch, bad version, bad token) is answered
// and the connection waits for another; any other frame severs it.
func (s *Server) handshake(conn net.Conn, remote string) bool {
	o := s.engine.Obs()
	for {
		kind, payload, err := ReadFrame(conn)
		if err != nil {
			return false // EOF or broken connection
		}
		k := kindName(kind)
		o.Counter("wire_frames_in_total", "kind", k).Inc()
		o.Counter("wire_bytes_in_total").Add(int64(len(payload)) + frameHeaderLen)
		if s.connFault() {
			return false // injected crash/drop: sever without a response
		}
		var c Control
		if kind != KindControl || json.Unmarshal(payload, &c) != nil || c.Op != "hello" {
			o.Point("request", k, remote, map[string]string{"outcome": "protocol-violation"})
			return false
		}
		started := s.engine.Clock().Now()
		o.StartSpan("request", k, remote, nil)
		res := s.serveHello(c)
		data, err := json.Marshal(res)
		if err != nil {
			o.EndSpan("request", k, remote, map[string]string{"outcome": "encode-error"})
			return false
		}
		o.Histogram("wire_request_seconds", "type", k).Observe(s.engine.Clock().Now().Sub(started).Seconds())
		o.EndSpan("request", k, remote, map[string]string{"outcome": "ok"})
		if err := WriteFrame(conn, KindControl, data); err != nil {
			return false
		}
		o.Counter("wire_frames_out_total", "kind", k).Inc()
		o.Counter("wire_bytes_out_total").Add(int64(len(data)) + frameHeaderLen)
		if res.OK {
			return true
		}
	}
}

// serveMux runs the mux loop: each frame is dispatched to its own
// handler goroutine — bounded per connection by muxConnWindow and
// globally by the admission scheduler — and responses are written
// under a shared lock as they complete, correlated by request id. A
// frame of unknown kind severs the connection.
func (s *Server) serveMux(ctx context.Context, conn net.Conn, remote string) {
	o := s.engine.Obs()
	var writeMu sync.Mutex
	window := make(chan struct{}, muxConnWindow)
	for {
		kind, id, payload, err := ReadMuxFrame(conn)
		if err != nil {
			return // EOF or broken connection
		}
		k := kindName(kind)
		o.Counter("wire_frames_in_total", "kind", k).Inc()
		o.Counter("wire_bytes_in_total").Add(int64(len(payload)) + muxHeaderLen)
		if s.connFault() {
			return // injected crash/drop: sever without a response
		}
		if kind < KindDGL || kind > KindReplicate {
			o.Point("request", k, remote, map[string]string{"outcome": "protocol-violation"})
			return
		}
		window <- struct{}{} // per-connection backpressure
		s.wg.Add(1)
		go func(kind byte, id uint64, payload []byte) {
			defer s.wg.Done()
			defer func() { <-window }()
			s.handleMuxFrame(ctx, conn, &writeMu, kind, id, payload, remote)
		}(kind, id, payload)
	}
}

// handleMuxFrame services one pipelined frame and writes its response.
func (s *Server) handleMuxFrame(ctx context.Context, conn net.Conn, writeMu *sync.Mutex, kind byte, id uint64, payload []byte, remote string) {
	o := s.engine.Obs()
	k := kindName(kind)
	started := s.engine.Clock().Now()
	o.StartSpan("request", k, remote, nil)
	enc := s.handleFrame(ctx, kind, payload)
	defer codec.PutEncoder(enc)
	data := enc.Bytes()
	o.Counter("codec_encode_bytes_total").Add(int64(len(data)))
	o.Histogram("wire_request_seconds", "type", k).Observe(s.engine.Clock().Now().Sub(started).Seconds())
	o.EndSpan("request", k, remote, map[string]string{"outcome": "ok"})
	writeMu.Lock()
	err := WriteMuxFrame(conn, kind, id, data)
	writeMu.Unlock()
	if err != nil {
		return // connection gone; the read loop will notice too
	}
	o.Counter("wire_frames_out_total", "kind", k).Inc()
	o.Counter("wire_bytes_out_total").Add(int64(len(data)) + muxHeaderLen)
}

// handleFrame services one frame payload of a known kind and returns
// its encoded reply in a pooled encoder, which the caller puts back
// after writing. The encoder is taken only once the reply is known, so
// a long-running request does not hold one. A payload that does not
// decode gets an invalid-class error reply of the frame's kind.
func (s *Server) handleFrame(ctx context.Context, kind byte, payload []byte) *codec.Encoder {
	switch kind {
	case KindDGL:
		resp := s.serveDGL(ctx, payload)
		enc := codec.GetEncoder()
		codec.AppendResponse(enc, resp)
		return enc
	case KindControl:
		res := s.serveControl(payload)
		enc := codec.GetEncoder()
		appendControlResult(enc, &res)
		return enc
	case KindBatch:
		ok, errText, out := s.serveBatch(ctx, payload)
		enc := codec.GetEncoder()
		appendBatchResult(enc, ok, errText, out)
		return enc
	case KindDelegate:
		res := s.serveDelegate(ctx, payload)
		enc := codec.GetEncoder()
		appendDelegateResult(enc, &res)
		return enc
	case KindRoute:
		res := s.serveRoute(ctx, payload)
		enc := codec.GetEncoder()
		appendRouteResult(enc, &res)
		return enc
	default: // KindReplicate; serveMux refuses unknown kinds
		res := s.serveReplicate(payload)
		enc := codec.GetEncoder()
		appendReplicateResult(enc, &res)
		return enc
	}
}

// badFrame is the typed error for a payload that does not decode.
func badFrame(what string, err error) string {
	return dgferr.Encode(fmt.Errorf("%w: bad %s frame: %v", dgferr.ErrInvalid, what, err))
}

// admit runs a request through the admission scheduler, tracking the
// wire_queue_depth and wire_inflight gauges. On success the caller must
// release() exactly once.
func (s *Server) admit(ctx context.Context, user string) error {
	o := s.engine.Obs()
	o.Gauge("wire_queue_depth").Add(1)
	err := s.adm.Acquire(ctx, user)
	o.Gauge("wire_queue_depth").Add(-1)
	if err != nil {
		return err
	}
	o.Gauge("wire_inflight").Add(1)
	return nil
}

// release returns an admitted request's slot.
func (s *Server) release() {
	s.adm.Release()
	s.engine.Obs().Gauge("wire_inflight").Add(-1)
}

// serveDGL parses one DGL request, runs it through admission, and
// services it. Errors become error responses rather than dropped
// connections — clients always get an answer per request.
func (s *Server) serveDGL(ctx context.Context, payload []byte) *dgl.Response {
	req, err := codec.DecodeRequest(payload)
	if err != nil {
		return &dgl.Response{Error: badFrame("dgl", err)}
	}
	id := req.User.Name
	if s.tenancyOn() {
		id, err = s.resolveTenant(req.Token, req.User.Name)
		if err != nil {
			return &dgl.Response{Error: dgferr.Encode(err)}
		}
		// The verified identity is the accounting identity everywhere
		// downstream: engine, store charges, provenance.
		req.User.Name = id
		if s.tenants != nil && req.Flow != nil {
			if err := s.tenants.AllowSubmit(id); err != nil {
				return &dgl.Response{Error: dgferr.Encode(err)}
			}
		}
	}
	if err := s.admit(ctx, id); err != nil {
		return &dgl.Response{Error: dgferr.Encode(err)}
	}
	defer s.release()
	return s.dispatchDGL(req)
}

// dispatchDGL services a decoded, admitted DGL request.
func (s *Server) dispatchDGL(req *dgl.Request) *dgl.Response {
	if q := req.StatusQuery; q != nil && req.Flow == nil && s.statusRouter != nil {
		st, err := s.statusRouter(req.User.Name, q.ID, q.Detail)
		if err != nil {
			return &dgl.Response{Error: dgferr.Encode(err)}
		}
		return &dgl.Response{Status: st}
	}
	if req.Flow != nil && s.submitRouter != nil {
		// A sharded peer owns flow placement: route to the shard owner or
		// accept locally, per the request's route preference.
		return s.submitRouter(req)
	}
	resp, err := s.engine.Submit(req)
	if err != nil {
		return &dgl.Response{Error: dgferr.Encode(err)}
	}
	return resp
}

// serveRoute services a KindRoute frame — the terminal hop of shard
// routing (docs/WIRE.md §"Route frames"): the routing peer resolved
// this server as the shard owner and hands the submission over. The
// handler accepts locally (never re-routes: one hop, no loops) or
// refuses with NotOwner when ownership moved in flight. A routed
// submission occupies one admission slot under the originating user,
// exactly like a direct submit.
func (s *Server) serveRoute(ctx context.Context, payload []byte) RouteResult {
	rt, err := decodeRoute(payload)
	if err != nil {
		return RouteResult{Error: badFrame("route", err)}
	}
	if s.routeHandler == nil {
		return RouteResult{Error: dgferr.Encode(
			fmt.Errorf("%w: server is not sharded", dgferr.ErrInvalid))}
	}
	id := rt.User
	if s.tenancyOn() {
		var terr error
		id, terr = s.resolveTenant(rt.Token, rt.User)
		if terr != nil {
			return RouteResult{Error: dgferr.Encode(terr)}
		}
		rt.User = id
	}
	if err := s.admit(ctx, id); err != nil {
		return RouteResult{Error: dgferr.Encode(err)}
	}
	defer s.release()
	return s.routeHandler(rt)
}

// serveReplicate services a KindReplicate frame — one block of an
// owner's lifecycle record stream, or a catch-up snapshot, applied into
// this peer's replica store for that owner (docs/REPLICATION.md).
// Replication bypasses admission like control verbs do: a standby that
// stops acking because the primary saturated it would turn overload
// into replication lag, and lag into data-loss exposure.
func (s *Server) serveReplicate(payload []byte) ReplicateResult {
	f, err := decodeReplicate(payload)
	if err != nil {
		return ReplicateResult{Error: badFrame("replicate", err)}
	}
	if s.replHandler == nil {
		return ReplicateResult{Error: dgferr.Encode(
			fmt.Errorf("%w: server is not replicating", dgferr.ErrInvalid))}
	}
	return s.replHandler(f)
}

// serveBatch services a KindBatch frame: N DGL requests in one frame,
// answered positionally with encoded responses. The whole batch
// occupies one admission slot (it is one frame of one user); items fail
// independently via per-item error responses, and ok is false only for
// an envelope-level failure described by errText.
func (s *Server) serveBatch(ctx context.Context, payload []byte) (ok bool, errText string, out [][]byte) {
	user, token, items, err := decodeBatch(payload)
	if err != nil {
		return false, badFrame("batch", err), nil
	}
	id := user
	if s.tenancyOn() {
		if id, err = s.resolveTenant(token, user); err != nil {
			return false, dgferr.Encode(err), nil
		}
	}
	if err := s.admit(ctx, id); err != nil {
		return false, dgferr.Encode(err), nil
	}
	defer s.release()
	out = make([][]byte, len(items))
	ie := codec.GetEncoder()
	defer codec.PutEncoder(ie)
	for i, doc := range items {
		ie.Reset()
		codec.AppendResponse(ie, s.serveBatchItem(doc, id))
		out[i] = append([]byte(nil), ie.Bytes()...)
	}
	return true, "", out
}

// serveBatchItem services one batch item under the envelope's resolved
// identity.
func (s *Server) serveBatchItem(doc []byte, id string) *dgl.Response {
	req, err := codec.DecodeRequest(doc)
	if err != nil {
		return &dgl.Response{Error: badFrame("batch item", err)}
	}
	if s.tenancyOn() {
		// Items run under the envelope's verified identity: an
		// authenticated batch cannot smuggle items for another tenant,
		// and each flow item is rate-charged on its own.
		if s.auth != nil && req.User.Name != "" && req.User.Name != id {
			return &dgl.Response{Error: dgferr.Encode(fmt.Errorf(
				"%w: batch item user %q does not match tenant %q",
				dgferr.ErrAuth, req.User.Name, id))}
		}
		req.User.Name = id
		if s.tenants != nil && req.Flow != nil {
			if err := s.tenants.AllowSubmit(id); err != nil {
				return &dgl.Response{Error: dgferr.Encode(err)}
			}
		}
	}
	return s.dispatchDGL(req)
}

// serveDelegate services a KindDelegate frame: run the embedded subflow
// to completion on this peer's engine and answer with its final status.
// A delegation occupies one admission slot for its whole run — the
// remote peer's capacity model sees it exactly like a local flow. When
// ctx is cancelled mid-run (delegating peer gone, or this server
// closing), the execution is cancelled and given DelegateGrace to
// unwind, so shutdown with in-flight delegations is deterministic.
func (s *Server) serveDelegate(ctx context.Context, payload []byte) DelegateResult {
	o := s.engine.Obs()
	outcome := func(out string) {
		o.Counter("wire_delegations_total", "outcome", out).Inc()
	}
	d, err := decodeDelegate(payload)
	if err != nil {
		outcome("invalid")
		return DelegateResult{Error: badFrame("delegate", err)}
	}
	req := d.Request
	if req == nil || req.Flow == nil {
		outcome("invalid")
		return DelegateResult{Error: dgferr.Encode(
			fmt.Errorf("%w: delegate request carries no flow", dgferr.ErrInvalid))}
	}
	user := d.User
	if user == "" {
		user = req.User.Name
	}
	if s.tenancyOn() {
		// A federated hop preserves identity: the origin forwarded the
		// submitting tenant's token and this peer re-verifies it against
		// its own authority (shared secret). An absent token downgrades
		// the delegation to the claimed (anonymous-but-admitted)
		// identity unless this server requires auth.
		id, terr := s.resolveTenant(d.Token, user)
		if terr != nil {
			outcome("auth-rejected")
			return DelegateResult{Error: dgferr.Encode(terr)}
		}
		user = id
		req.User.Name = id
	}
	if err := s.admit(ctx, user); err != nil {
		outcome("rejected")
		return DelegateResult{Error: dgferr.Encode(err)}
	}
	defer s.release()
	exec, err := s.engine.Start(req.User.Name, *req.Flow)
	if err != nil {
		outcome("error")
		return DelegateResult{Error: dgferr.Encode(err)}
	}
	s.engine.Grid().Provenance().Append(provenance.Record{
		Time:   s.engine.Clock().Now(),
		Actor:  d.Origin,
		Action: "deleg.serve",
		Target: exec.ID,
		FlowID: exec.ID,
		Detail: map[string]string{
			"origin":     d.Origin,
			"parentExec": d.ParentExec,
			"parentNode": d.ParentNode,
		},
	})
	werr := exec.WaitContext(ctx)
	if ctx.Err() != nil {
		exec.Cancel()
		select {
		case <-exec.Done():
		case <-time.After(s.cfg.DelegateGrace):
		}
		outcome("cancelled")
		return DelegateResult{ID: exec.ID, Error: dgferr.Encode(fmt.Errorf(
			"%w: delegation cancelled by server", dgferr.ErrCancelled))}
	}
	st := exec.Status(true)
	res := DelegateResult{ID: exec.ID, Status: &st}
	if werr != nil {
		outcome("error")
		res.Error = dgferr.Encode(werr)
		return res
	}
	outcome("ok")
	res.OK = true
	return res
}

// serveControl handles one control frame of a helloed session. A
// repeated hello re-verifies the offered version and token.
func (s *Server) serveControl(payload []byte) ControlResult {
	c, err := decodeControl(payload)
	if err != nil {
		return ControlResult{Error: badFrame("control", err)}
	}
	if c.Op == "hello" {
		return s.serveHello(c)
	}
	return s.serveControlOp(c)
}

// serveHello answers the hello verb (docs/WIRE.md, "Version
// negotiation"): a malformed version or a major mismatch is refused
// with a protocol-class error, and an offered token must verify when a
// token authority is attached.
func (s *Server) serveHello(c Control) ControlResult {
	major, _, err := ParseProtoVersion(c.Proto)
	if err != nil {
		return ControlResult{Error: dgferr.Encode(
			fmt.Errorf("%w: %v", dgferr.ErrProtocol, err))}
	}
	proto := ProtoVersion(ProtoMajor, ProtoMinor)
	if major != ProtoMajor {
		return ControlResult{Error: dgferr.Encode(fmt.Errorf(
			"%w: client speaks %s, server speaks %s",
			dgferr.ErrProtocol, c.Proto, proto))}
	}
	res := ControlResult{OK: true, Proto: proto}
	if c.Token != "" && s.auth != nil {
		// Credential exchange: a bad token fails the handshake
		// immediately — the client learns its credential is dead before
		// submitting anything.
		id, err := s.auth.Verify(c.Token)
		if err != nil {
			s.engine.Obs().Counter("tenant_auth_failures_total").Inc()
			return ControlResult{Error: dgferr.Encode(err)}
		}
		res.Tenant = id
	}
	return res
}

// serveControlOp services the non-hello control verbs.
func (s *Server) serveControlOp(c Control) ControlResult {
	if c.Op == "owner" {
		// Resolved before the execution lookup below: an ownership query
		// must not resurrect a passivated execution as a side effect.
		if s.ownerResolver == nil {
			return ControlResult{Error: dgferr.Encode(
				fmt.Errorf("%w: server is not sharded", dgferr.ErrInvalid))}
		}
		info, err := s.ownerResolver(c.ID)
		if err != nil {
			return ControlResult{Error: dgferr.Encode(err)}
		}
		return ControlResult{OK: true, ID: c.ID, Owner: info}
	}
	if c.Op == "tenants" {
		// Like "owner": resolved before the execution lookup so a
		// tenancy probe cannot resurrect anything as a side effect.
		info := &TenantsInfo{}
		if s.tenants != nil {
			limit := c.Limit
			if limit <= 0 {
				limit = 20
			}
			info.Enabled = true
			info.Auth = s.auth != nil
			info.Require = s.requireAuth
			info.Registered = s.tenants.Len()
			info.Tenants = s.tenants.Snapshot(limit)
		}
		return ControlResult{OK: true, Tenants: info}
	}
	if c.Op == "vdata" {
		// Like "owner": resolved before the execution lookup so a catalog
		// probe cannot resurrect anything as a side effect.
		return s.serveVdata(c)
	}
	if c.Op == "repl" {
		// Like "owner": resolved before the execution lookup so a status
		// probe cannot resurrect anything as a side effect.
		if s.replResolver == nil {
			return ControlResult{Error: dgferr.Encode(
				fmt.Errorf("%w: server is not replicating", dgferr.ErrInvalid))}
		}
		return ControlResult{OK: true, Repl: s.replResolver()}
	}
	exec, ok := s.engine.Execution(c.ID)
	if !ok && c.ID != "" {
		// The target may be passivated in the flow-state store: wire
		// requests are a resurrection path (docs/STORE.md). Unknown ids
		// still fall through to the per-verb not-found handling.
		if ex, err := s.engine.ResurrectFor(c.ID, "wire"); err == nil {
			exec, ok = ex, true
		}
	}
	unknown := func() ControlResult {
		return ControlResult{Error: dgferr.Encode(
			fmt.Errorf("%w: execution %s", dgferr.ErrNotFound, c.ID))}
	}
	switch c.Op {
	case "pause":
		if !ok {
			return unknown()
		}
		exec.Pause()
		return ControlResult{OK: true, ID: c.ID}
	case "resume":
		if !ok {
			return unknown()
		}
		exec.Resume()
		return ControlResult{OK: true, ID: c.ID}
	case "cancel":
		if !ok {
			return unknown()
		}
		exec.Cancel()
		return ControlResult{OK: true, ID: c.ID}
	case "restart":
		next, err := s.engine.Restart(c.ID)
		if err != nil {
			return ControlResult{Error: dgferr.Encode(err)}
		}
		return ControlResult{OK: true, ID: next.ID}
	case "list":
		var rows []ExecutionInfo
		for _, sum := range s.engine.ListExecutions() {
			rows = append(rows, ExecutionInfo{
				ID: sum.ID, Name: sum.Name, State: string(sum.State), User: sum.User,
			})
		}
		return ControlResult{OK: true, Executions: rows}
	case "metrics":
		raw, err := json.Marshal(s.engine.Obs().Snapshot())
		if err != nil {
			return ControlResult{Error: "snapshot: " + err.Error()}
		}
		return ControlResult{OK: true, Metrics: raw}
	case "store":
		st := s.engine.Store()
		if st == nil {
			return ControlResult{Error: dgferr.Encode(
				fmt.Errorf("%w: no flow-state store attached", dgferr.ErrInvalid))}
		}
		return ControlResult{OK: true, Store: storeInfo(s.engine, st)}
	case "compact":
		st := s.engine.Store()
		if st == nil {
			return ControlResult{Error: dgferr.Encode(
				fmt.Errorf("%w: no flow-state store attached", dgferr.ErrInvalid))}
		}
		cs, err := st.Compact()
		if err != nil {
			return ControlResult{Error: dgferr.Encode(err)}
		}
		info := storeInfo(s.engine, st)
		info.Compaction = &CompactionInfo{
			SegmentsBefore: cs.SegmentsBefore,
			RecordsBefore:  cs.RecordsBefore,
			RecordsKept:    cs.RecordsKept,
			RecordsDropped: cs.RecordsDropped,
		}
		return ControlResult{OK: true, Store: info}
	default:
		return ControlResult{Error: dgferr.Encode(
			fmt.Errorf("%w: unknown control op %q", dgferr.ErrInvalid, c.Op))}
	}
}

// serveVdata services the "vdata" control verb (docs/VDATA.md): stats, lookup, publish and invalidate against the
// engine's derivation catalog. Every sub-operation resolves the caller's
// tenant exactly as submissions do — the bearer token on the frame is
// re-verified, and with an authority attached it must agree with the
// claimed user — so no tenant can read or drop another's derivations.
func (s *Server) serveVdata(c Control) ControlResult {
	info := &VdataInfo{}
	cat := s.engine.Vdata()
	if cat == nil {
		return ControlResult{OK: true, Vdata: info}
	}
	info.Enabled = true
	ten, err := s.resolveTenant(c.Token, c.User)
	if err != nil {
		return ControlResult{Error: dgferr.Encode(err)}
	}
	sub := c.Sub
	if sub == "" {
		sub = "stats"
	}
	s.engine.Obs().Counter("wire_vdata_ops_total", "op", sub).Inc()
	switch sub {
	case "stats":
		st := cat.Stats()
		info.Entries = st.Entries
		info.Tenants = st.Tenants
		info.Publishes = st.Publishes
		info.Invalidations = st.Invalidations
		info.Durable = st.Durable
	case "lookup":
		if c.Key == "" {
			return ControlResult{Error: dgferr.Encode(
				fmt.Errorf("%w: vdata lookup needs a key", dgferr.ErrInvalid))}
		}
		if ent, ok := cat.Lookup(ten, c.Key); ok {
			info.Found = true
			info.Entry = &ent
		}
	case "publish":
		var ent vdata.Entry
		if err := json.Unmarshal([]byte(c.Data), &ent); err != nil {
			return ControlResult{Error: dgferr.Encode(
				fmt.Errorf("%w: vdata publish: bad entry: %v", dgferr.ErrInvalid, err))}
		}
		// A caller may only ever write its own tenant scope.
		ent.Tenant = ten
		if err := cat.Publish(ent); err != nil {
			return ControlResult{Error: dgferr.Encode(err)}
		}
		info.Entries = cat.Len()
	case "invalidate":
		if c.Key == "" {
			return ControlResult{Error: dgferr.Encode(
				fmt.Errorf("%w: vdata invalidate needs a key or output path", dgferr.ErrInvalid))}
		}
		n, err := cat.Invalidate(ten, c.Key)
		if err != nil {
			return ControlResult{Error: dgferr.Encode(err)}
		}
		info.Removed = n
	default:
		return ControlResult{Error: dgferr.Encode(
			fmt.Errorf("%w: unknown vdata sub-operation %q", dgferr.ErrInvalid, c.Sub))}
	}
	return ControlResult{OK: true, Vdata: info}
}

// storeInfo summarizes the engine's flow-state store for the "store"
// and "compact" control verbs.
func storeInfo(engine *matrix.Engine, st *store.Store) *StoreInfo {
	stats := st.Stats()
	return &StoreInfo{
		Segments:      stats.Segments,
		Records:       stats.Records,
		ReplayRecords: stats.ReplayRecords,
		Live:          stats.Live,
		Passivated:    stats.Passivated,
		Resident:      len(engine.Executions()),
		SnapshotLag:   stats.SnapshotLag,
		Failed:        stats.Failed,
	}
}

// Close stops the listener and closes all live connections.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	if s.listener != nil {
		s.listener.Close()
	}
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}
