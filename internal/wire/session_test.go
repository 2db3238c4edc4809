package wire

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"datagridflow/internal/codec"
	"datagridflow/internal/dgferr"
	"datagridflow/internal/dgl"
	"datagridflow/internal/dgms"
	"datagridflow/internal/fault"
	"datagridflow/internal/matrix"
	"datagridflow/internal/obs"
	"datagridflow/internal/sim"
)

func TestParseProtoVersionStrict(t *testing.T) {
	good := []struct {
		in           string
		major, minor int
	}{
		{"2.0", 2, 0},
		{"1.8", 1, 8},
		{"10.12", 10, 12},
		{"007.01", 7, 1},
	}
	for _, tc := range good {
		major, minor, err := ParseProtoVersion(tc.in)
		if err != nil || major != tc.major || minor != tc.minor {
			t.Errorf("ParseProtoVersion(%q) = %d, %d, %v; want %d, %d", tc.in, major, minor, err, tc.major, tc.minor)
		}
	}
	for _, in := range []string{
		"1.8junk", "1.8.3", " 1.8", "1.8 ", "+1.-4", "-1.0", "1.+0",
		"1", "1.", ".8", "", ".", "1..8", "a.b", "1.8\n", "1234567890.0",
	} {
		if major, minor, err := ParseProtoVersion(in); err == nil {
			t.Errorf("ParseProtoVersion(%q) = %d, %d, nil; want an error", in, major, minor)
		}
	}
}

// rawConn dials addr without a Client, for driving the server with
// hand-built frames.
func rawConn(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	return conn
}

// rawHello runs the hello exchange on conn by hand.
func rawHello(t *testing.T, conn net.Conn, proto string) ControlResult {
	t.Helper()
	data, err := json.Marshal(Control{Op: "hello", Proto: proto})
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(conn, KindControl, data); err != nil {
		t.Fatal(err)
	}
	kind, payload, err := ReadFrame(conn)
	if err != nil || kind != KindControl {
		t.Fatalf("hello reply = %d, %v", kind, err)
	}
	var res ControlResult
	if err := json.Unmarshal(payload, &res); err != nil {
		t.Fatal(err)
	}
	return res
}

// expectSevered checks the server closed conn without answering.
func expectSevered(t *testing.T, conn net.Conn) {
	t.Helper()
	var b [1]byte
	if n, err := conn.Read(b[:]); err != io.EOF {
		t.Fatalf("read after violation = %d, %v; want EOF", n, err)
	}
}

// unmatchedRequestEnds counts "request" end events with no preceding
// start for the same id in the trace ring.
func unmatchedRequestEnds(reg *obs.Registry) int {
	open := map[string]int{}
	bad := 0
	for _, ev := range reg.Trace().Events() {
		if ev.Scope != "request" {
			continue
		}
		switch ev.Type {
		case obs.EventStart:
			open[ev.ID]++
		case obs.EventEnd:
			if open[ev.ID] == 0 {
				bad++
				continue
			}
			open[ev.ID]--
		}
	}
	return bad
}

// TestPreHelloFramesSever: before a successful hello the server answers
// only hello. A refused hello is answered and the connection waits for
// another; any other frame — a DGL request, a non-hello control verb —
// severs the connection without a reply.
func TestPreHelloFramesSever(t *testing.T) {
	e := newEngine(t, "")
	_, addr := startServer(t, e)

	conn := rawConn(t, addr)
	enc := codec.GetEncoder()
	defer codec.PutEncoder(enc)
	codec.AppendRequest(enc, dgl.NewRequest("user", "", noopFlow("early")))
	if err := WriteFrame(conn, KindDGL, enc.Bytes()); err != nil {
		t.Fatal(err)
	}
	expectSevered(t, conn)

	conn = rawConn(t, addr)
	if err := WriteFrame(conn, KindControl, []byte(`{"op":"list"}`)); err != nil {
		t.Fatal(err)
	}
	expectSevered(t, conn)

	// A 1.x hello is refused with a protocol-class error, and the same
	// connection may still complete a 2.0 hello afterwards.
	conn = rawConn(t, addr)
	res := rawHello(t, conn, "1.8")
	if res.OK || !errors.Is(dgferr.Decode(res.Error), dgferr.ErrProtocol) {
		t.Fatalf("1.8 hello = %+v, want a protocol-class refusal", res)
	}
	if res := rawHello(t, conn, ProtoVersion(ProtoMajor, ProtoMinor)); !res.OK {
		t.Fatalf("hello after a refused one = %+v", res)
	}
}

// TestUnknownFrameKindSevers sends a mux frame of an unknown kind on a
// helloed session: the server drops the connection and leaves no
// unmatched request end event in its trace ring.
func TestUnknownFrameKindSevers(t *testing.T) {
	e, reg := newObservedEngine(t, "")
	_, addr := startServer(t, e)
	conn := rawConn(t, addr)
	if res := rawHello(t, conn, ProtoVersion(ProtoMajor, ProtoMinor)); !res.OK {
		t.Fatalf("hello = %+v", res)
	}
	if err := WriteMuxFrame(conn, 9, 1, nil); err != nil {
		t.Fatal(err)
	}
	expectSevered(t, conn)
	if got := reg.Counter("wire_frames_in_total", "kind", "unknown").Value(); got != 1 {
		t.Errorf("wire_frames_in_total{kind=unknown} = %d, want 1", got)
	}
	found := false
	for _, ev := range reg.Trace().Events() {
		if ev.Scope == "request" && ev.Attrs["outcome"] == "protocol-violation" {
			found = ev.Type == obs.EventPoint
		}
	}
	if !found {
		t.Error("no protocol-violation point event in the trace ring")
	}
	if n := unmatchedRequestEnds(reg); n != 0 {
		t.Errorf("%d request end events without a start", n)
	}
}

// TestInterruptedHelloSevers: a first request whose context expires
// while the server is still answering the implicit hello must not
// leave the connection in use. The server may answer and switch to mux
// framing after the client gave up, so the next request fails fast with
// a resource-down error instead of re-sending a plain hello into the
// server's mux reader, and Redial restores the session.
func TestInterruptedHelloSevers(t *testing.T) {
	g := dgms.New(dgms.Options{Clock: sim.RealClock{}}) // fault latency takes wall time
	e := matrix.NewEngine(g)
	window := sim.NewVirtualClock(sim.Epoch)
	in, err := fault.NewInjector(window, fault.Plan{Events: []fault.Event{
		{Target: "srv", Kind: fault.Latency, Delay: 300 * time.Millisecond, Duration: time.Minute},
	}})
	if err != nil {
		t.Fatal(err)
	}
	s, addr := startServer(t, e)
	s.SetFault(in, "srv")
	c := dial(t, addr)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := submitReq(ctx, c, dgl.NewStatusRequest("user", "x", false)); !errors.Is(err, dgferr.ErrCancelled) {
		t.Fatalf("first request = %v, want ErrCancelled", err)
	}
	start := time.Now()
	if _, err := c.Status("user", "x", false); !errors.Is(err, dgferr.ErrResourceDown) {
		t.Fatalf("request after the interrupted hello = %v, want ErrResourceDown", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("request after the interrupted hello took %v, want a fast failure", d)
	}
	if c.Muxed() {
		t.Error("Muxed() = true after an interrupted hello")
	}

	window.Advance(2 * time.Minute) // the latency window closes
	if err := c.Redial(context.Background()); err != nil {
		t.Fatalf("redial: %v", err)
	}
	if _, err := c.Status("user", "no-such", false); !errors.Is(err, dgferr.ErrNotFound) {
		t.Errorf("after redial: %v, want a served ErrNotFound", err)
	}
}
