package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"

	"datagridflow/internal/codec"
	"datagridflow/internal/dgl"
	"datagridflow/internal/replica"
	"datagridflow/internal/tenant"
	"datagridflow/internal/vdata"
)

// FuzzReadMuxFrame feeds arbitrary bytes to the mux frame reader: it
// must return a frame or an error (truncation or an oversized length),
// never panic, and an accepted frame must re-encode to exactly the
// bytes it was read from.
func FuzzReadMuxFrame(f *testing.F) {
	var ok bytes.Buffer
	_ = WriteMuxFrame(&ok, KindDGL, 7, []byte{codec.Magic, codec.Version, codec.MsgRequest})
	f.Add(ok.Bytes())
	f.Add(ok.Bytes()[:5])                                        // truncated header
	f.Add(ok.Bytes()[:len(ok.Bytes())-1])                        // truncated payload
	f.Add([]byte{KindBatch, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1}) // empty payload
	oversize := make([]byte, muxHeaderLen)
	binary.BigEndian.PutUint32(oversize[1:5], MaxFrame+1)
	f.Add(oversize)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		kind, id, payload, err := ReadMuxFrame(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, ErrFrameTooLarge) {
				t.Fatalf("unexpected error class: %v", err)
			}
			if len(data) >= muxHeaderLen {
				n := binary.BigEndian.Uint32(data[1:5])
				tooLarge := errors.Is(err, ErrFrameTooLarge)
				if tooLarge != (n > MaxFrame) {
					t.Fatalf("length %d: ErrFrameTooLarge = %v", n, tooLarge)
				}
				if !tooLarge && uint64(len(data)) >= uint64(muxHeaderLen)+uint64(n) {
					t.Fatalf("complete %d-byte frame rejected: %v", n, err)
				}
			}
			return
		}
		var out bytes.Buffer
		if err := WriteMuxFrame(&out, kind, id, payload); err != nil {
			t.Fatalf("re-encode accepted frame: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data[:out.Len()]) {
			t.Fatalf("re-encoded frame differs from its input")
		}
	})
}

// envelopeCodec is one binary envelope schema under fuzz: decode from
// bytes, encode back.
type envelopeCodec struct {
	name   string
	decode func([]byte) (any, error)
	encode func(*codec.Encoder, any)
}

type batchEnvelope struct {
	user, token string
	items       [][]byte
}

type batchReply struct {
	ok      bool
	errText string
	items   [][]byte
}

var envelopeCodecs = []envelopeCodec{
	{"control",
		func(b []byte) (any, error) { return decodeControl(b) },
		func(e *codec.Encoder, v any) { c := v.(Control); appendControl(e, &c) }},
	{"control-result",
		func(b []byte) (any, error) { return decodeControlResult(b) },
		func(e *codec.Encoder, v any) { r := v.(ControlResult); appendControlResult(e, &r) }},
	{"batch",
		func(b []byte) (any, error) {
			user, token, items, err := decodeBatch(b)
			return batchEnvelope{user, token, items}, err
		},
		func(e *codec.Encoder, v any) { b := v.(batchEnvelope); appendBatch(e, b.user, b.token, b.items) }},
	{"batch-result",
		func(b []byte) (any, error) {
			ok, errText, items, err := decodeBatchResult(b)
			return batchReply{ok, errText, items}, err
		},
		func(e *codec.Encoder, v any) { r := v.(batchReply); appendBatchResult(e, r.ok, r.errText, r.items) }},
	{"delegate",
		func(b []byte) (any, error) { return decodeDelegate(b) },
		func(e *codec.Encoder, v any) { d := v.(Delegate); appendDelegate(e, &d) }},
	{"delegate-result",
		func(b []byte) (any, error) { return decodeDelegateResult(b) },
		func(e *codec.Encoder, v any) { r := v.(DelegateResult); appendDelegateResult(e, &r) }},
	{"route",
		func(b []byte) (any, error) { return decodeRoute(b) },
		func(e *codec.Encoder, v any) { r := v.(Route); appendRoute(e, &r) }},
	{"route-result",
		func(b []byte) (any, error) { return decodeRouteResult(b) },
		func(e *codec.Encoder, v any) { r := v.(RouteResult); appendRouteResult(e, &r) }},
	{"replicate",
		func(b []byte) (any, error) { return decodeReplicate(b) },
		func(e *codec.Encoder, v any) { f := v.(Replicate); appendReplicate(e, &f) }},
	{"replicate-result",
		func(b []byte) (any, error) { return decodeReplicateResult(b) },
		func(e *codec.Encoder, v any) { r := v.(ReplicateResult); appendReplicateResult(e, &r) }},
}

// envelopeSeeds encodes one representative value of every envelope.
func envelopeSeeds() [][]byte {
	req := dgl.NewAsyncRequest("user", "", dgl.NewFlow("f").
		Var("k", "v").
		Step("s", dgl.Op(dgl.OpNoop, map[string]string{"p": "1"})).Flow())
	req.Token = "tok"
	st := &dgl.FlowStatus{ID: "p:dgf-000001", Name: "f", Kind: "flow", State: "succeeded",
		Children: []dgl.FlowStatus{{ID: "p:dgf-000001/s", Name: "s", Kind: "step", State: "succeeded"}}}
	item := func(r *dgl.Request) []byte {
		e := codec.GetEncoder()
		defer codec.PutEncoder(e)
		codec.AppendRequest(e, r)
		return append([]byte(nil), e.Bytes()...)
	}
	values := []any{
		Control{Op: "vdata", ID: "x", Proto: "2.0", Token: "t", Limit: 3, Sub: "lookup", User: "u", Key: "k", Data: "{}"},
		ControlResult{OK: true, ID: "x", Proto: "2.0", Tenant: "alice",
			Executions: []ExecutionInfo{{ID: "a", Name: "n", State: "running", User: "u"}},
			Metrics:    []byte(`{"counters":[]}`),
			Store:      &StoreInfo{Segments: 2, Records: 9, Compaction: &CompactionInfo{RecordsKept: 3}},
			Owner:      &OwnerInfo{ID: "x", Peer: "p", Shard: 4, Source: "ring"},
			Repl: &ReplInfo{Mode: "quorum", Seq: 7, Followers: []ReplFollowerInfo{{Peer: "b", AckedSeq: 6}},
				Sources: []ReplSourceInfo{{Source: "c", LastSeq: 5, Live: 1, Promoted: true}}},
			Tenants: &TenantsInfo{Enabled: true, Registered: 1, Tenants: []tenant.Info{{Name: "alice", Weight: 2.5, Flows: 1}}},
			Vdata:   &VdataInfo{Enabled: true, Found: true, Entry: &vdata.Entry{Key: "k", Op: "fft", Outputs: []string{"/o"}}}},
		batchEnvelope{"user", "tok", [][]byte{item(req), item(dgl.NewStatusRequest("user", "x", true))}},
		batchReply{true, "", [][]byte{{codec.Magic, codec.Version, codec.MsgResponse}}},
		Delegate{User: "user", Token: "t", Request: req, Origin: "a", ParentExec: "a:dgf-1", ParentNode: "a:dgf-1/x"},
		DelegateResult{OK: false, Error: "dgf:flow: boom", ID: "b:dgf-2", Status: st},
		Route{User: "user", Token: "t", Request: req, Shard: 17, Origin: "a"},
		RouteResult{OK: true, NotOwner: true, Owner: "c", Response: &dgl.Response{Status: st,
			Ack: &dgl.Ack{ID: "b:dgf-3", Status: "accepted", Valid: true}}},
		Replicate{Op: replica.OpAppend, Source: "a", Seq: 3, Count: 1, Block: []byte("{}\n"), Chain: []string{"b", "c"}},
		ReplicateResult{OK: true, AckSeq: 3, NeedSnapshot: true, Error: "x"},
	}
	var out [][]byte
	for i, v := range values {
		e := codec.GetEncoder()
		envelopeCodecs[i].encode(e, v)
		out = append(out, append([]byte(nil), e.Bytes()...))
		codec.PutEncoder(e)
	}
	return out
}

// FuzzDecodeEnvelope feeds arbitrary bytes to every binary envelope
// decoder — the only path network bytes take after the hello. Each
// input must decode to a value or an error, never panic, and an
// accepted input must re-encode and decode to an equal value.
func FuzzDecodeEnvelope(f *testing.F) {
	for _, seed := range envelopeSeeds() {
		f.Add(seed)
	}
	f.Add([]byte{codec.Magic, codec.Version, codec.MsgRoute, 0x0e, 0x00})
	f.Add([]byte(`{"op":"hello","proto":"2.0"}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, ec := range envelopeCodecs {
			v1, err := ec.decode(data)
			if err != nil {
				continue
			}
			e := codec.GetEncoder()
			ec.encode(e, v1)
			b1 := append([]byte(nil), e.Bytes()...)
			codec.PutEncoder(e)
			v2, err := ec.decode(b1)
			if err != nil {
				t.Fatalf("%s: re-encoded value does not decode: %v", ec.name, err)
			}
			if !sameValue(reflect.ValueOf(v1), reflect.ValueOf(v2)) {
				t.Fatalf("%s: round trip mismatch:\n got %#v\nwant %#v", ec.name, v2, v1)
			}
		}
	})
}

// sameValue is reflect.DeepEqual with two relaxations the encoding
// cannot observe: nil and empty slices and maps are equal (empty fields
// are omitted on the wire), and NaN equals NaN (floats cross as bits).
func sameValue(a, b reflect.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.Len() != b.Len() {
			return false
		}
		for _, k := range a.MapKeys() {
			bv := b.MapIndex(k)
			if !bv.IsValid() || !sameValue(a.MapIndex(k), bv) {
				return false
			}
		}
		return true
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameValue(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Float32, reflect.Float64:
		x, y := a.Float(), b.Float()
		return x == y || (math.IsNaN(x) && math.IsNaN(y))
	case reflect.String:
		return a.String() == b.String()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return a.Uint() == b.Uint()
	default:
		return reflect.DeepEqual(a.Interface(), b.Interface())
	}
}
