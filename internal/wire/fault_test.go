package wire

import (
	"context"
	"errors"
	"testing"
	"time"

	"datagridflow/internal/dgferr"
	"datagridflow/internal/dgl"
	"datagridflow/internal/fault"
	"datagridflow/internal/matrix"
	"datagridflow/internal/sim"
)

func dial(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestHelloNegotiation(t *testing.T) {
	e := newEngine(t, "")
	_, addr := startServer(t, e)
	c := dial(t, addr)
	proto, err := c.Hello()
	if err != nil {
		t.Fatalf("Hello: %v", err)
	}
	if proto != ProtoVersion(ProtoMajor, ProtoMinor) {
		t.Errorf("server proto = %q, want %q", proto, ProtoVersion(ProtoMajor, ProtoMinor))
	}
}

func TestHelloMajorMismatch(t *testing.T) {
	e := newEngine(t, "")
	_, addr := startServer(t, e)
	c := dial(t, addr)
	// A hypothetical incompatible client offers major 99.
	_, err := c.controlMsg(context.Background(), Control{Op: "hello", Proto: "99.0"})
	if !errors.Is(err, dgferr.ErrProtocol) {
		t.Errorf("major mismatch = %v, want ErrProtocol", err)
	}
	// Garbled versions also land in the protocol class.
	_, err = c.controlMsg(context.Background(), Control{Op: "hello", Proto: "banana"})
	if !errors.Is(err, dgferr.ErrProtocol) {
		t.Errorf("bad version = %v, want ErrProtocol", err)
	}
	// Same-major minor skew is compatible.
	res, err := c.controlMsg(context.Background(), Control{Op: "hello",
		Proto: ProtoVersion(ProtoMajor, ProtoMinor+5)})
	if err != nil || !res.OK {
		t.Errorf("minor skew rejected: %v %+v", err, res)
	}
}

// TestTypedErrorsOverWire: the acceptance criterion — a client-side
// errors.Is against the taxonomy sentinels holds for failures produced
// deep inside the remote engine.
func TestTypedErrorsOverWire(t *testing.T) {
	e := newEngine(t, "")
	// Force an always-down resource so the retry budget burns out.
	in, err := fault.NewInjector(e.Grid().Clock(), fault.Plan{
		Events: []fault.Event{{Target: "disk", Kind: fault.ResourceDown}},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Grid().SetFault(in)
	_, addr := startServer(t, e)
	c := dial(t, addr)

	st := dgl.Step{
		Name: "ingest", OnError: dgl.OnErrorRetry, Retries: 2,
		Operation: dgl.Op(dgl.OpIngest, map[string]string{
			"path": "/grid/f.dat", "size": "100", "resource": "disk",
		}),
	}
	_, err = c.RunFlow(context.Background(), "user", dgl.NewFlow("f").StepWith(st).Flow())
	if !errors.Is(err, dgferr.ErrRetryExhausted) {
		t.Errorf("errors.Is(err, ErrRetryExhausted) = false over the wire: %v", err)
	}
	if dgferr.Retryable(err) {
		t.Errorf("exhausted remote failure still marked retryable")
	}

	// Status of an unknown execution: the not-found class crosses too.
	if _, err := c.Status("user", "no-such-exec", false); !errors.Is(err, dgferr.ErrNotFound) {
		t.Errorf("unknown execution = %v, want ErrNotFound", err)
	}
}

// TestPeerCrashDropsConnections: a peer-crash window severs connections
// at the frame boundary; after the window the server accepts again.
func TestPeerCrashDropsConnections(t *testing.T) {
	e := newEngine(t, "")
	clock := sim.NewVirtualClock(sim.Epoch)
	in, err := fault.NewInjector(clock, fault.Plan{Events: []fault.Event{
		{At: time.Minute, Target: "srv", Kind: fault.PeerCrash, Duration: time.Minute},
	}})
	if err != nil {
		t.Fatal(err)
	}
	s, addr := startServer(t, e)
	s.SetFault(in, "srv")

	flow := dgl.NewFlow("f").Step("ingest", dgl.Op(dgl.OpIngest, map[string]string{
		"path": "/grid/crash.dat", "size": "100", "resource": "disk",
	})).Flow()

	c := dial(t, addr)
	if _, err := c.RunFlow(context.Background(), "user", flow); err != nil {
		t.Fatalf("before crash window: %v", err)
	}
	clock.Advance(90 * time.Second) // into the crash window
	if _, err := submitReq(context.Background(), c, dgl.NewStatusRequest("user", "x", false)); err == nil {
		t.Fatal("request survived the crash window")
	}
	clock.Advance(time.Minute) // the server "restarts"
	c2 := dial(t, addr)
	if _, err := c2.Status("user", "no-such", false); !errors.Is(err, dgferr.ErrNotFound) {
		t.Errorf("after restart: %v, want a served (typed) response", err)
	}
}

func TestClientContextCancellation(t *testing.T) {
	e := newEngine(t, "")
	release := make(chan struct{})
	e.RegisterOp("hang", func(*matrix.OpContext) error { <-release; return nil })
	_, addr := startServer(t, e)
	c := dial(t, addr)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := submitReq(ctx, c, dgl.NewRequest("user", "",
		dgl.NewFlow("f").Step("h", dgl.Op("hang", nil)).Flow()))
	if !errors.Is(err, dgferr.ErrCancelled) {
		t.Errorf("cancelled round trip = %v, want ErrCancelled", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Errorf("cancellation did not interrupt in-flight I/O promptly")
	}
	// Unblock the server-side execution before the server's Close cleanup
	// runs (cleanups are LIFO: Close would otherwise wait on this conn).
	close(release)
}
