package wire

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"datagridflow/internal/codec"
	"datagridflow/internal/dgferr"
	"datagridflow/internal/dgl"
)

// TestBinaryNegotiation pins the hello outcomes: a current client and
// server ("1.4 both": both at or past the version that introduced the
// codec) complete the exchange and serve every request kind over binary
// payloads; against a 1.3 server, which predates the codec, the hello
// fails with a protocol-class error and nothing else is sent.
func TestBinaryNegotiation(t *testing.T) {
	t.Run("1.4 both", func(t *testing.T) {
		e := newEngine(t, "")
		_, addr := startServer(t, e)
		c := dial(t, addr)
		// The default test grid shares the process-wide obs registry:
		// assert on deltas, not absolutes.
		enc0 := e.Obs().Counter("codec_encode_bytes_total").Value()
		if _, err := c.Hello(); err != nil {
			t.Fatal(err)
		}
		if !c.Binary() || !c.Muxed() {
			t.Fatalf("Binary() = %v, Muxed() = %v after hello", c.Binary(), c.Muxed())
		}
		resp, err := c.SubmitFlow("user", noopFlow("neg"))
		if err != nil || resp.Status == nil || resp.Status.State != "succeeded" {
			t.Fatalf("submit over negotiated session: %+v, %v", resp, err)
		}
		id, err := submitAsync(c, "user", noopFlow("neg2"))
		if err != nil || id == "" {
			t.Fatalf("async submit: %q, %v", id, err)
		}
		if _, err := c.List(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Status("user", id, true); err != nil {
			t.Fatal(err)
		}
		if e.Obs().Counter("codec_encode_bytes_total").Value() == enc0 {
			t.Fatal("binary session encoded no reply bytes")
		}
	})
	t.Run("1.3 server", func(t *testing.T) {
		addr, frames := fakeHelloServer(t, `{"ok":true,"proto":"1.3"}`)
		c := dial(t, addr)
		if _, err := c.Hello(); !errors.Is(err, dgferr.ErrProtocol) {
			t.Fatalf("hello against a 1.3 server = %v, want ErrProtocol", err)
		}
		if c.Binary() || c.Muxed() {
			t.Fatal("session marked negotiated after a refused hello")
		}
		if n := <-frames; n != 1 {
			t.Fatalf("client sent %d frames to a 1.3 server, want only the hello", n)
		}
	})
}

// fakeHelloServer accepts one connection, answers its first frame with
// the given JSON hello reply, then reports how many frames the client
// sent before closing the connection.
func fakeHelloServer(t *testing.T, reply string) (string, <-chan int) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	frames := make(chan int, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			frames <- 0
			return
		}
		defer conn.Close()
		n := 0
		for {
			_ = conn.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
			if _, _, err := ReadFrame(conn); err != nil {
				break
			}
			n++
			if n == 1 {
				_ = WriteFrame(conn, KindControl, []byte(reply))
			}
		}
		frames <- n
	}()
	return l.Addr().String(), frames
}

// TestBinaryBatchRoundTrip drives SubmitBatch over a binary session:
// the envelope and every item ride the codec, the reply is positional,
// and per-item failures stay independent.
func TestBinaryBatchRoundTrip(t *testing.T) {
	e := newEngine(t, "")
	_, addr := startServer(t, e)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Hello(); err != nil {
		t.Fatal(err)
	}
	if !c.Binary() {
		t.Fatal("expected binary session")
	}
	reqs := []*dgl.Request{
		dgl.NewRequest("user", "", noopFlow("b0")),
		dgl.NewStatusRequest("user", "dgf-missing", false), // fails per-item
		dgl.NewRequest("user", "", noopFlow("b2")),
	}
	resps, err := submitBatch(context.Background(), c, "user", reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 3 {
		t.Fatalf("got %d responses, want 3", len(resps))
	}
	if resps[0].Status == nil || resps[0].Status.State != "succeeded" {
		t.Fatalf("item 0: %+v", resps[0])
	}
	if resps[1].Error == "" || !errors.Is(dgferr.Decode(resps[1].Error), dgferr.ErrNotFound) {
		t.Fatalf("item 1 error = %q", resps[1].Error)
	}
	if resps[2].Status == nil || resps[2].Status.State != "succeeded" {
		t.Fatalf("item 2: %+v", resps[2])
	}
}

// TestBinaryControlVerbs runs the store/metrics control surface over a
// binary session — the nested StoreInfo/metrics-blob encodings.
func TestBinaryControlVerbs(t *testing.T) {
	e := newEngine(t, "")
	_, addr := startServer(t, e)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Hello(); err != nil {
		t.Fatal(err)
	}
	if !c.Binary() {
		t.Fatal("expected binary session")
	}
	snap, err := c.Metrics()
	if err != nil || len(snap.Counters) == 0 {
		t.Fatalf("metrics over binary: %+v, %v", snap, err)
	}
	// Typed errors survive the binary encoding.
	if _, err := c.StoreStats(); !errors.Is(err, dgferr.ErrInvalid) {
		t.Fatalf("store verb without a store = %v, want ErrInvalid", err)
	}
	if err := c.Pause("dgf-none"); !errors.Is(err, dgferr.ErrNotFound) {
		t.Fatalf("pause unknown = %v, want ErrNotFound", err)
	}
}

// TestTextPayloadRejected sends an XML request document on a helloed
// session: the server answers with an invalid-class error in a binary
// reply, and the connection keeps serving.
func TestTextPayloadRejected(t *testing.T) {
	e := newEngine(t, "")
	_, addr := startServer(t, e)
	c := dialMux(t, addr)
	doc, err := dgl.Marshal(dgl.NewRequest("user", "", noopFlow("rogue")))
	if err != nil {
		t.Fatal(err)
	}
	kind, payload, err := c.roundTrip(context.Background(), KindDGL, doc)
	if err != nil || kind != KindDGL {
		t.Fatalf("round trip = %d, %v", kind, err)
	}
	resp, err := codec.DecodeResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error == "" || !errors.Is(dgferr.Decode(resp.Error), dgferr.ErrInvalid) {
		t.Fatalf("response error = %q, want invalid class", resp.Error)
	}
	if _, err := c.SubmitFlow("user", noopFlow("after")); err != nil {
		t.Fatal(err)
	}
}

// TestBinaryDelegateEnvelope drives a delegation over a binary session
// directly at the client level, as federation peers do.
func TestBinaryDelegateEnvelope(t *testing.T) {
	e := newEngine(t, "")
	_, addr := startServer(t, e)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Hello(); err != nil {
		t.Fatal(err)
	}
	if !c.Binary() {
		t.Fatal("expected binary session")
	}
	res, err := c.Delegate(context.Background(), Delegate{
		User: "user", Request: dgl.NewRequest("user", "", noopFlow("dlg")), Origin: "origin-node",
	})
	if err != nil || !res.OK || res.ID == "" {
		t.Fatalf("delegate = %+v, %v", res, err)
	}
	if res.Status == nil || res.Status.State != "succeeded" {
		t.Fatalf("delegate status = %+v", res.Status)
	}
}
