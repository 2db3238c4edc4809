package wire

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"datagridflow/internal/dgferr"
	"datagridflow/internal/dgl"
	"datagridflow/internal/obs"
	"datagridflow/internal/scheduler"
	"datagridflow/internal/tenant"
)

// tenantServer stands up a server with the tenancy plane attached and
// returns the authority for minting test tokens.
func tenantServer(t testing.TB, require bool, cfg ServerConfig) (*Server, string, *tenant.Authority, *tenant.Registry) {
	t.Helper()
	e := newEngine(t, "")
	s := NewServerConfig(e, cfg)
	auth, err := tenant.NewAuthority([]byte("wire-test-secret"))
	if err != nil {
		t.Fatal(err)
	}
	reg := tenant.NewRegistry(tenant.Quota{}, obs.NewRegistry())
	s.SetTenancy(auth, reg, require)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, addr, auth, reg
}

func mint(t testing.TB, auth *tenant.Authority, name string) string {
	t.Helper()
	tok, err := auth.Mint(name, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	return tok
}

// TestHelloTokenExchange covers the hello credential exchange: a
// valid token yields the verified tenant on the hello result; a forged
// token fails the handshake before anything is submitted.
func TestHelloTokenExchange(t *testing.T) {
	_, addr, auth, _ := tenantServer(t, false, ServerConfig{})

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetToken(mint(t, auth, "alice"))
	if _, err := c.Hello(); err != nil {
		t.Fatal(err)
	}
	if got := c.Tenant(); got != "alice" {
		t.Errorf("Tenant() = %q, want alice", got)
	}

	// Forged token: handshake refused.
	bad, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	bad.SetToken("dgt1.YWxpY2U.9999999999.Zm9yZ2Vk")
	if _, err := bad.Hello(); err == nil {
		t.Fatal("hello with a forged token succeeded")
	}
	if bad.Muxed() {
		t.Error("refused hello left the session negotiated")
	}
}

// TestRequireAuthRejectsTokenless covers -tenant-require: submissions
// without a token are refused with a typed auth error; the same flow
// under a minted token is admitted under the token's tenant.
func TestRequireAuthRejectsTokenless(t *testing.T) {
	_, addr, auth, _ := tenantServer(t, true, ServerConfig{})

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.SubmitFlow("user", noopFlow("f"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error == "" {
		t.Fatal("tokenless submit admitted on a require-auth server")
	}
	if !errors.Is(dgferr.Decode(resp.Error), dgferr.ErrAuth) {
		t.Errorf("tokenless submit error = %q, want typed ErrAuth", resp.Error)
	}

	c.SetToken(mint(t, auth, "alice"))
	resp, err = c.SubmitFlow("alice", noopFlow("f"))
	if err != nil || resp.Error != "" {
		t.Fatalf("tokened submit = %v / %q", err, resp.Error)
	}
}

// TestTokenUserMismatch: a request claiming a user other than the
// token's tenant is an identity forgery and must be refused.
func TestTokenUserMismatch(t *testing.T) {
	_, addr, auth, _ := tenantServer(t, false, ServerConfig{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetToken(mint(t, auth, "alice"))
	resp, err := c.SubmitFlow("bob", noopFlow("f"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error == "" || !errors.Is(dgferr.Decode(resp.Error), dgferr.ErrAuth) {
		t.Errorf("mismatched user = %q, want typed ErrAuth", resp.Error)
	}
	// Empty claimed user defers to the token.
	resp, err = c.SubmitFlow("", noopFlow("f"))
	if err != nil || resp.Error != "" {
		t.Fatalf("empty-user submit = %v / %q", err, resp.Error)
	}
}

// TestTokenlessAndUntenantedInterop covers both directions of mixing
// tenancy postures (docs/WIRE.md): a tokenless client against a tenancy
// server is anonymous-but-admitted, and a tokened client against a
// server without a token authority works, its token ignored.
func TestTokenlessAndUntenantedInterop(t *testing.T) {
	// Tokenless client → tenancy server.
	_, addr, _, _ := tenantServer(t, false, ServerConfig{})
	anon, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer anon.Close()
	if _, err := anon.Hello(); err != nil {
		t.Fatal(err)
	}
	if got := anon.Tenant(); got != "" {
		t.Errorf("tokenless hello negotiated tenant %q", got)
	}
	resp, err := anon.SubmitFlow("user", noopFlow("f"))
	if err != nil || resp.Error != "" {
		t.Fatalf("anonymous-but-admitted submit = %v / %q", err, resp.Error)
	}

	// Tokened client → server without tenancy. The token rides the
	// request and is ignored; the tenants verb reports tenancy off.
	e := newEngine(t, "plain")
	_, plainAddr := startServer(t, e)
	auth, err := tenant.NewAuthority([]byte("wire-test-secret"))
	if err != nil {
		t.Fatal(err)
	}
	nc, err := Dial(plainAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetToken(mint(t, auth, "alice"))
	if _, err := nc.Hello(); err != nil {
		t.Fatal(err)
	}
	if got := nc.Tenant(); got != "" {
		t.Errorf("untenanted server granted tenant %q", got)
	}
	resp, err = nc.SubmitFlow("user", noopFlow("f"))
	if err != nil || resp.Error != "" {
		t.Fatalf("tokened submit to untenanted server = %v / %q", err, resp.Error)
	}
	info, err := nc.Tenants(0)
	if err != nil || info.Enabled {
		t.Errorf("tenants verb on an untenanted server = %+v, %v", info, err)
	}
}

// TestTenantsVerbRoundTrip: the control verb reports the server's
// tenancy posture and per-tenant usage.
func TestTenantsVerbRoundTrip(t *testing.T) {
	_, addr, auth, reg := tenantServer(t, false, ServerConfig{})
	reg.Register("alice", tenant.Quota{Weight: 4})
	reg.Register("bob", tenant.Quota{Weight: 2})

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetToken(mint(t, auth, "alice"))
	if _, err := c.Hello(); err != nil {
		t.Fatal(err)
	}
	resp, err := c.SubmitFlow("alice", noopFlow("f"))
	if err != nil || resp.Error != "" {
		t.Fatalf("submit = %v / %q", err, resp.Error)
	}
	info, err := c.Tenants(10)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Enabled || !info.Auth || info.Require {
		t.Errorf("posture = %+v, want enabled auth-on require-off", info)
	}
	if info.Registered != 2 {
		t.Errorf("registered = %d, want 2", info.Registered)
	}
	var alice *tenant.Info
	for i := range info.Tenants {
		if info.Tenants[i].Name == "alice" {
			alice = &info.Tenants[i]
		}
	}
	if alice == nil || alice.Weight != 4 {
		t.Errorf("alice row = %+v", alice)
	}
}

// TestBatchEnvelopeIdentity: batch items run under the envelope's
// verified identity; an item claiming a different user fails alone
// without sinking the batch.
func TestBatchEnvelopeIdentity(t *testing.T) {
	_, addr, auth, _ := tenantServer(t, false, ServerConfig{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetToken(mint(t, auth, "alice"))
	if _, err := c.Hello(); err != nil {
		t.Fatal(err)
	}
	reqs := []*dgl.Request{
		dgl.NewAsyncRequest("", "", noopFlow("a")),      // inherits the envelope identity
		dgl.NewAsyncRequest("alice", "", noopFlow("b")), // matches: fine
		dgl.NewAsyncRequest("mallory", "", noopFlow("c")),
	}
	resps, err := submitBatch(context.Background(), c, "alice", reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 3 {
		t.Fatalf("responses = %d, want 3", len(resps))
	}
	if resps[0].Error != "" || resps[1].Error != "" {
		t.Errorf("conforming items failed: %q / %q", resps[0].Error, resps[1].Error)
	}
	if resps[2].Error == "" || !errors.Is(dgferr.Decode(resps[2].Error), dgferr.ErrAuth) {
		t.Errorf("imposter item = %q, want typed ErrAuth", resps[2].Error)
	}
}

// TestQuotaRejectionOverWire: a flows-in-flight quota breach surfaces
// to the client as a typed ErrQuota, and releasing the flow frees the
// slot.
func TestQuotaRejectionOverWire(t *testing.T) {
	// A real clock: the holding flow must still be in flight when the
	// second one arrives (the default test grid completes sleeps
	// instantly on its virtual clock).
	e := newRealClockEngine(t)
	s := NewServer(e)
	auth, err := tenant.NewAuthority([]byte("wire-test-secret"))
	if err != nil {
		t.Fatal(err)
	}
	reg := tenant.NewRegistry(tenant.Quota{}, obs.NewRegistry())
	reg.Register("alice", tenant.Quota{MaxFlows: 1})
	s.SetTenancy(auth, reg, false)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetToken(mint(t, auth, "alice"))
	if _, err := c.Hello(); err != nil {
		t.Fatal(err)
	}
	hold := dgl.NewFlow("hold").
		Step("op", dgl.Op(dgl.OpSleep, map[string]string{"duration": "30s"})).Flow()
	id, err := submitAsync(c, "alice", hold)
	if err != nil {
		t.Fatal(err)
	}
	_, err = submitAsync(c, "alice", hold)
	if err == nil || !errors.Is(err, dgferr.ErrQuota) {
		t.Fatalf("second flow = %v, want typed ErrQuota", err)
	}
	// Cancelling the holder frees the slot (and the test goroutine).
	if err := c.Cancel(id); err != nil {
		t.Fatal(err)
	}
}

// TestLookupAuthGating: a token-gated registry refuses mutating
// operations without a token, keeps reads open, and admits a tokened
// peer end to end (Peer.SetLookupToken).
func TestLookupAuthGating(t *testing.T) {
	auth, err := tenant.NewAuthority([]byte("lookup-secret"))
	if err != nil {
		t.Fatal(err)
	}
	ls := NewLookupServer()
	ls.SetAuth(auth)
	addr, err := ls.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()

	lc, err := DialLookup(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	if err := lc.Register("peerA", "127.0.0.1:9999"); err == nil ||
		!strings.Contains(err.Error(), "token") {
		t.Fatalf("tokenless register = %v, want token refusal", err)
	}
	// Reads stay open: the directory is not a secret.
	if _, err := lc.List(); err != nil {
		t.Fatalf("tokenless list refused: %v", err)
	}

	tok, err := auth.Mint("ops", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	lc.SetToken(tok)
	if err := lc.Register("peerA", "127.0.0.1:9999"); err != nil {
		t.Fatalf("tokened register = %v", err)
	}
	if _, err := lc.Heartbeat("peerA", "127.0.0.1:9999", scheduler.PeerLoad{}); err != nil {
		t.Fatalf("tokened heartbeat = %v", err)
	}
	if got, err := lc.Resolve("peerA"); err != nil || got != "127.0.0.1:9999" {
		t.Fatalf("resolve = %q / %v", got, err)
	}
	if err := lc.Unregister("peerA"); err != nil {
		t.Fatalf("tokened unregister = %v", err)
	}

	// End to end: a peer started with SetLookupToken registers itself.
	e := newEngine(t, "lk")
	p := NewPeer("peerB", e)
	p.SetLookupToken(tok)
	if _, err := p.Start("127.0.0.1:0", addr); err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if got, err := lc.Resolve("peerB"); err != nil || got == "" {
		t.Fatalf("peerB registration = %q / %v", got, err)
	}
}
