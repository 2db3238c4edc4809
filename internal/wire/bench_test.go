package wire

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"
	"testing"

	"datagridflow/internal/codec"
	"datagridflow/internal/dgl"
)

// benchPayload is a representative binary DGL request payload.
var benchPayload = func() []byte {
	req := dgl.NewAsyncRequest("user", "", dgl.NewFlow("bench").
		Step("a", dgl.Op(dgl.OpNoop, map[string]string{"k1": "v1", "k2": "v2"})).
		Step("b", dgl.Op(dgl.OpNoop, nil)).
		Step("c", dgl.Op(dgl.OpNoop, nil)).Flow())
	enc := codec.GetEncoder()
	defer codec.PutEncoder(enc)
	codec.AppendRequest(enc, req)
	return append([]byte(nil), enc.Bytes()...)
}()

func BenchmarkFrameEncode(b *testing.B) {
	b.SetBytes(int64(len(benchPayload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := WriteFrame(io.Discard, KindDGL, benchPayload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrameDecode(b *testing.B) {
	var one bytes.Buffer
	if err := WriteFrame(&one, KindDGL, benchPayload); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(benchPayload)))
	b.ReportAllocs()
	r := bytes.NewReader(nil)
	for i := 0; i < b.N; i++ {
		r.Reset(one.Bytes())
		if _, _, err := ReadFrame(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMuxFrameEncode(b *testing.B) {
	b.SetBytes(int64(len(benchPayload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := WriteMuxFrame(io.Discard, KindDGL, uint64(i), benchPayload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMuxFrameDecode(b *testing.B) {
	var one bytes.Buffer
	if err := WriteMuxFrame(&one, KindDGL, 7, benchPayload); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(benchPayload)))
	b.ReportAllocs()
	r := bytes.NewReader(nil)
	for i := 0; i < b.N; i++ {
		r.Reset(one.Bytes())
		if _, _, _, err := ReadMuxFrame(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelinedRoundTrip measures the same request mix over a
// multiplexed session with 16 concurrent submitters sharing one
// connection — the pipelining win mux framing exists for.
func BenchmarkPipelinedRoundTrip(b *testing.B) {
	e := newEngine(b, "")
	_, addr := startServer(b, e)
	c, err := Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Hello(); err != nil {
		b.Fatal(err)
	}
	if !c.Muxed() {
		b.Fatal("session not muxed")
	}
	const workers = 16
	flow := noopFlow("bench")
	b.ResetTimer()
	var wg sync.WaitGroup
	iters := make(chan struct{}, b.N)
	for i := 0; i < b.N; i++ {
		iters <- struct{}{}
	}
	close(iters)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range iters {
				if _, err := submitAsync(c, "user", flow); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	e.Prune(0)
}

// BenchmarkBatchRoundTrip measures throughput when flows travel 32 to a
// frame.
func BenchmarkBatchRoundTrip(b *testing.B) {
	e := newEngine(b, "")
	_, addr := startServer(b, e)
	c, err := Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Hello(); err != nil {
		b.Fatal(err)
	}
	const batch = 32
	reqs := make([]*dgl.Request, batch)
	for i := range reqs {
		reqs[i] = dgl.NewAsyncRequest("user", "", noopFlow(fmt.Sprintf("b%d", i)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		if _, err := submitBatch(context.Background(), c, "user", reqs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	e.Prune(0)
}
