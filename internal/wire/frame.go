// Package wire implements the network layer of the DfMS: a framed TCP
// protocol carrying DGL requests between clients and matrix servers,
// plus the peer-to-peer datagridflow network with lookup servers the
// paper describes ("Multiple DfMS servers can form a peer-to-peer
// datagridflow network with one or more lookup servers").
//
// A session has one shape. The client opens with a JSON hello on the
// plain frame (a 1-byte kind and a 4-byte big-endian length); after a
// successful reply both ends speak mux frames, which add an 8-byte
// request id so many requests share the connection, and every mux
// payload is a binary codec message (internal/codec). DGL XML stays at
// the human edge — documents and dgfctl — and never crosses between
// machines.
//
// The full protocol — frame layout, request/response semantics, control
// opcodes, the lookup protocol and peer routing of execution ids — is
// specified in docs/WIRE.md; the metrics the layer emits are documented
// in docs/METRICS.md.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"datagridflow/internal/dgl"
	"datagridflow/internal/replica"
	"datagridflow/internal/tenant"
	"datagridflow/internal/vdata"
)

// Frame kinds. A session opens with one JSON hello on the plain 5-byte
// frame (KindControl); every later frame is a mux frame whose payload
// is a binary codec message (internal/codec, docs/CODEC.md).
const (
	// KindDGL frames carry a DGL request or response (codec MsgRequest /
	// MsgResponse).
	KindDGL byte = 1
	// KindControl frames carry control verbs: the opening hello as JSON,
	// every later verb as a codec MsgControl / MsgControlResult.
	KindControl byte = 2
	// KindBatch frames carry a batch envelope of N DGL requests (one
	// submission round trip for many flows).
	KindBatch byte = 3
	// KindDelegate frames carry a delegation envelope: one peer asks
	// another to execute a subflow on its behalf and waits for the final
	// status (the federation plane, docs/FEDERATION.md).
	KindDelegate byte = 4
	// KindRoute frames carry a routing envelope: a peer that accepted a
	// flow submission hands the whole request to the shard owner the
	// consistent-hash ring names for it (docs/FEDERATION.md, "Sharded
	// ownership"). The receiver is the terminal hop — it executes
	// locally, never re-routes.
	KindRoute byte = 5
	// KindReplicate frames carry a replication envelope
	// (internal/replica.Frame): a shard owner streams blocks of its
	// lifecycle record log — or a catch-up snapshot — to a follower
	// peer, positioned by per-record sequence numbers
	// (docs/REPLICATION.md). The record block inside the envelope stays
	// in the sender's store encoding (JSONL or binary frames) and the
	// receiver sniffs it per block, so mixed-codec stores replicate to
	// each other.
	KindReplicate byte = 6
)

// MaxFrame bounds a frame payload (16 MiB): a defense against corrupt
// length prefixes, far above any real DGL document.
const MaxFrame = 16 << 20

// ErrFrameTooLarge reports a length prefix beyond MaxFrame.
var ErrFrameTooLarge = errors.New("wire: frame too large")

// WriteFrame writes one frame to w.
func WriteFrame(w io.Writer, kind byte, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(payload))
	}
	var hdr [5]byte
	hdr[0] = kind
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame from r.
func ReadFrame(r io.Reader) (kind byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return hdr[0], payload, nil
}

// Protocol version, exchanged by the opening hello. Majors must match
// for a session to proceed; a minor difference is accepted. After a
// successful hello both ends switch to mux framing with binary codec
// payloads. See docs/WIRE.md, "Version negotiation".
const (
	ProtoMajor = 2
	ProtoMinor = 0
)

// WriteMuxFrame writes one multiplexed frame: the plain header plus a
// request id that correlates a response to its request, letting many
// requests share a connection concurrently.
//
//	offset  size  field
//	0       1     kind
//	1       4     length (big-endian uint32, payload bytes)
//	5       8     request id (big-endian uint64)
//	13      n     payload
func WriteMuxFrame(w io.Writer, kind byte, id uint64, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(payload))
	}
	var hdr [13]byte
	hdr[0] = kind
	binary.BigEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	binary.BigEndian.PutUint64(hdr[5:13], id)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadMuxFrame reads one multiplexed frame.
func ReadMuxFrame(r io.Reader) (kind byte, id uint64, payload []byte, err error) {
	var hdr [13]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[1:5])
	if n > MaxFrame {
		return 0, 0, nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	id = binary.BigEndian.Uint64(hdr[5:13])
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, 0, nil, err
	}
	return hdr[0], id, payload, nil
}

// ProtoVersion renders a protocol version as "major.minor".
func ProtoVersion(major, minor int) string {
	return fmt.Sprintf("%d.%d", major, minor)
}

// ParseProtoVersion splits a "major.minor" version string. Both parts
// must be non-empty runs of ASCII digits: no sign, space or suffix.
func ParseProtoVersion(s string) (major, minor int, err error) {
	maj, min, ok := strings.Cut(s, ".")
	if ok {
		major, ok = parseDigits(maj)
	}
	if ok {
		minor, ok = parseDigits(min)
	}
	if !ok {
		return 0, 0, fmt.Errorf("wire: bad protocol version %q", s)
	}
	return major, minor, nil
}

// parseDigits parses a non-empty run of ASCII digits that fits an int.
func parseDigits(s string) (int, bool) {
	if s == "" || len(s) > 9 {
		return 0, false
	}
	n := 0
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, false
		}
		n = n*10 + int(s[i]-'0')
	}
	return n, true
}

// Control is the JSON payload of a KindControl frame.
type Control struct {
	// Op is "hello", "pause", "resume", "cancel", "restart", "list",
	// "metrics", "store" or "compact".
	Op string `json:"op"`
	// ID is the execution id the verb applies to ("hello", "list" and
	// "metrics" ignore it).
	ID string `json:"id,omitempty"`
	// Proto is the client's protocol version ("2.0") for "hello".
	Proto string `json:"proto,omitempty"`
	// Token is the tenant bearer token (docs/TENANCY.md). On "hello" it
	// is the credential exchange: a server with a token authority
	// verifies it and echoes the tenant identity, failing the handshake
	// on a forged or expired token. Other verbs may carry it for
	// per-request auth.
	Token string `json:"token,omitempty"`
	// Limit bounds the "tenants" verb's reply rows (0 = server default).
	Limit int `json:"limit,omitempty"`
	// Sub selects the "vdata" verb's sub-operation: "stats" (the
	// default), "lookup", "publish" or "invalidate" (docs/VDATA.md).
	Sub string `json:"sub,omitempty"`
	// User is the claimed tenant identity for verbs resolved per tenant
	// ("vdata"); with an authority attached the token must agree with it
	// (the same re-verification submissions get).
	User string `json:"user,omitempty"`
	// Key is the "vdata" verb's target: a derivation key for lookup, a
	// key or output path for invalidate.
	Key string `json:"key,omitempty"`
	// Data carries the JSON vdata.Entry of a "vdata" publish.
	Data string `json:"data,omitempty"`
}

// ControlResult is the reply to a control frame (JSON for the opening
// hello, binary codec afterwards).
type ControlResult struct {
	OK bool `json:"ok"`
	// ID echoes the execution id (the new id for restart).
	ID    string `json:"id,omitempty"`
	Error string `json:"error,omitempty"`
	// Proto is the server's protocol version, returned by "hello".
	Proto string `json:"proto,omitempty"`
	// Executions carries the listing for the "list" verb.
	Executions []ExecutionInfo `json:"executions,omitempty"`
	// Metrics carries the engine's obs.Snapshot (JSON) for the
	// "metrics" verb.
	Metrics json.RawMessage `json:"metrics,omitempty"`
	// Store carries the flow-state store summary for the "store" and
	// "compact" verbs.
	Store *StoreInfo `json:"store,omitempty"`
	// Owner carries the shard-ownership resolution for the "owner"
	// verb (docs/WIRE.md §"Control verbs").
	Owner *OwnerInfo `json:"owner,omitempty"`
	// Repl carries the replication summary for the "repl" verb
	// (docs/REPLICATION.md).
	Repl *ReplInfo `json:"repl,omitempty"`
	// Tenant is the authenticated tenant identity, echoed by "hello"
	// when the client's token verified (docs/TENANCY.md).
	Tenant string `json:"tenant,omitempty"`
	// Tenants carries the tenancy summary for the "tenants" verb.
	Tenants *TenantsInfo `json:"tenants,omitempty"`
	// Vdata carries the virtual-data reply for the "vdata" verb
	// (docs/VDATA.md).
	Vdata *VdataInfo `json:"vdata,omitempty"`
}

// VdataInfo is the reply to the "vdata" control verb: the catalog's
// shape for "stats", the resolution for "lookup", the drop count for
// "invalidate" (docs/VDATA.md).
type VdataInfo struct {
	// Enabled reports whether a derivation catalog is attached at all.
	Enabled bool `json:"enabled"`
	// Entries/Tenants/Publishes/Invalidations/Durable mirror
	// vdata.Stats for the "stats" sub-operation.
	Entries       int    `json:"entries,omitempty"`
	Tenants       int    `json:"tenants,omitempty"`
	Publishes     uint64 `json:"publishes,omitempty"`
	Invalidations uint64 `json:"invalidations,omitempty"`
	Durable       bool   `json:"durable,omitempty"`
	// Found and Entry answer a "lookup": the memoized derivation, tenant
	// permitting.
	Found bool         `json:"found,omitempty"`
	Entry *vdata.Entry `json:"entry,omitempty"`
	// Removed counts the derivations an "invalidate" dropped.
	Removed int `json:"removed,omitempty"`
}

// StoreInfo is the reply to the "store" control verb: the shape of the
// server's flow-state store, for operators (dgfctl store).
type StoreInfo struct {
	// Segments is the number of on-disk segment files.
	Segments int `json:"segments"`
	// Records counts live records across the segments.
	Records int `json:"records"`
	// ReplayRecords is how many records the store replayed when it was
	// last opened — the restart cost.
	ReplayRecords int `json:"replayRecords"`
	// Live counts executions that are neither ended nor pruned.
	Live int `json:"live"`
	// Passivated counts live executions evicted from engine memory.
	Passivated int `json:"passivated"`
	// Resident counts executions currently in engine memory.
	Resident int `json:"resident"`
	// SnapshotLag is the number of records appended since the last
	// snapshot.
	SnapshotLag int `json:"snapshotLag"`
	// Failed carries the sticky write/fsync error that poisoned the
	// store, if any — a failed store rejects all further appends.
	Failed string `json:"failed,omitempty"`
	// Compaction reports the compaction a "compact" verb just ran
	// (nil for "store").
	Compaction *CompactionInfo `json:"compaction,omitempty"`
}

// CompactionInfo reports one compaction run.
type CompactionInfo struct {
	SegmentsBefore int `json:"segmentsBefore"`
	RecordsBefore  int `json:"recordsBefore"`
	RecordsKept    int `json:"recordsKept"`
	RecordsDropped int `json:"recordsDropped"`
}

// ExecutionInfo is one row of a "list" reply.
type ExecutionInfo struct {
	ID    string `json:"id"`
	Name  string `json:"name"`
	State string `json:"state"`
	User  string `json:"user"`
}

// Delegate is the envelope of a KindDelegate frame: one peer hands a
// subflow to another for execution. The receiving server validates and
// runs the request synchronously (the frame's response carries the
// final status), under its own admission scheduler — a delegation
// occupies one admission slot, like any other flow.
type Delegate struct {
	// User is the identity the delegated flow runs as (and the
	// admission account it is charged to).
	User string
	// Token is the originating tenant's bearer token, forwarded so the
	// federated hop preserves the authenticated identity
	// (docs/TENANCY.md). The receiving peer re-verifies it against its
	// own authority (shared secret).
	Token string
	// Request carries the subflow, with the delegating peer's
	// parent-scope variable values already bound into the flow's
	// variable block (late binding resolves on the delegating side; see
	// docs/FEDERATION.md). It travels as codec.AppendRequest bytes.
	Request *dgl.Request
	// Origin names the delegating peer, for the remote server's logs
	// and provenance.
	Origin string
	// ParentExec and ParentNode locate the delegating node in the
	// origin peer's execution tree, so the two provenance trails can be
	// joined.
	ParentExec string
	ParentNode string
}

// DelegateResult is the reply to a delegate frame.
type DelegateResult struct {
	OK bool
	// Error is the typed (dgferr-encoded) failure: either a
	// transport/validation problem or the delegated flow's own terminal
	// error. Status may still be set alongside it.
	Error string
	// ID is the remote execution id ("peerB:dgf-000042") — globally
	// resolvable from any peer via status forwarding (docs/WIRE.md §3).
	ID string
	// Status is the final status tree of the remote run. It travels as
	// the status of a codec.AppendResponse payload.
	Status *dgl.FlowStatus
}

// Route is the envelope of a KindRoute frame: the accepting peer hands
// a whole flow submission to the shard owner the ring names for it.
// Unlike Delegate (a subtree of a running flow), a routed request
// becomes the receiver's own top-level execution — the receiver *is*
// the owner, and the flow's id carries its prefix. The receiver is the
// terminal hop: it verifies it still holds the shard's lease, then
// executes locally and never re-routes (loop prevention).
type Route struct {
	// User is the submitting identity the receiver's admission
	// scheduler charges the request to.
	User string
	// Token is the submitting tenant's bearer token, forwarded so the
	// shard-owner hop preserves the authenticated identity
	// (docs/TENANCY.md).
	Token string
	// Request is the submission, carried as codec.AppendRequest bytes.
	Request *dgl.Request
	// Shard is the shard index the routing peer mapped the submission
	// to; the receiver refuses (NotOwner) if it no longer holds its
	// lease — the drain/claim exclusivity check.
	Shard int
	// Origin names the routing peer, for logs and metrics.
	Origin string
}

// RouteResult is the reply to a route frame.
type RouteResult struct {
	OK bool
	// Error is the typed (dgferr-encoded) failure — transport-level,
	// ownership refusal, or the flow's own synchronous failure.
	Error string
	// NotOwner reports an ownership refusal: the receiver does not
	// hold the shard's lease (drained or lost between the routing
	// decision and arrival). The sender refreshes its owner map and
	// re-places the flow.
	NotOwner bool
	// Owner is the receiver's current view of the shard's holder, a
	// redirect hint alongside NotOwner.
	Owner string
	// Response is the executed submission's reply (ack for async, final
	// status for sync), carried as codec.AppendResponse bytes.
	Response *dgl.Response
}

// OwnerInfo is the reply to the "owner" control verb: where a flow id
// (or routing key) currently lives on the sharded network.
type OwnerInfo struct {
	// ID echoes the resolved id.
	ID string `json:"id"`
	// Peer is the owning peer's name; Addr its address when the lookup
	// registry could resolve it.
	Peer string `json:"peer"`
	Addr string `json:"addr,omitempty"`
	// Shard is the id's shard index.
	Shard int `json:"shard"`
	// Source says how the owner was resolved: "tracked" (this peer
	// recorded the accept), "prefix" (the id's owner prefix resolved
	// through the registry), or "ring" (the shard's current lease
	// holder — the re-placement target when the prefix peer is dead).
	Source string `json:"source"`
}

// Replicate is the payload of a KindReplicate frame and
// ReplicateResult its reply — the replication envelope and ack defined
// by internal/replica and specified byte-for-byte in docs/WIRE.md
// §"Replicate frames". The record block inside the binary envelope
// keeps the sender's store encoding, never transcoded in flight.
type (
	Replicate       = replica.Frame
	ReplicateResult = replica.Ack
)

// TenantsInfo is the reply to the "tenants" control verb: the server's
// tenancy posture and its most active tenants (docs/TENANCY.md).
type TenantsInfo struct {
	// Enabled reports whether a tenant registry is attached at all.
	Enabled bool `json:"enabled"`
	// Auth reports whether a token authority is attached (tokens are
	// verified); Require that untokened submissions are rejected.
	Auth    bool `json:"auth,omitempty"`
	Require bool `json:"require,omitempty"`
	// Registered counts explicitly registered tenants.
	Registered int `json:"registered"`
	// Tenants lists the most active tenants (by flows in flight, then
	// store bytes), bounded by the request's Limit.
	Tenants []tenant.Info `json:"tenants,omitempty"`
}

// ReplInfo is the reply to the "repl" control verb: this peer's
// replication posture — the followers it streams to and the sources it
// stands by for (docs/REPLICATION.md, "Observability").
type ReplInfo struct {
	// Mode is the ack mode ("quorum", "chain" or "async").
	Mode string `json:"mode"`
	// Seq is the local store's replication cursor: the sequence number
	// of its last durable record.
	Seq uint64 `json:"seq"`
	// Followers lists the peers this owner streams to and how far each
	// has acknowledged.
	Followers []ReplFollowerInfo `json:"followers,omitempty"`
	// Sources lists the owners this peer holds replicas for.
	Sources []ReplSourceInfo `json:"sources,omitempty"`
}

// ReplFollowerInfo is one follower's acknowledged position.
type ReplFollowerInfo struct {
	Peer     string `json:"peer"`
	AckedSeq uint64 `json:"ackedSeq"`
}

// ReplSourceInfo is one replicated source's standby state.
type ReplSourceInfo struct {
	Source string `json:"source"`
	// LastSeq is the highest contiguous sequence applied from the
	// source.
	LastSeq uint64 `json:"lastSeq"`
	// Live counts live executions in the replica — what a promotion
	// would adopt.
	Live int `json:"live"`
	// Promoted reports the replica was already taken over.
	Promoted bool `json:"promoted"`
}
