package distributed

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"

	"roundtriprank/internal/graph"
)

// AnyStripe selects "the worker's sole stripe" in the stripe-addressed APIs:
// the classic one-stripe-per-process deployment never has to name its stripe,
// while replicated fleets (where one member serves several stripes) address
// each call with an explicit index.
const AnyStripe = -1

// Worker serves stripes of the distributed iteration: the stateless multiply
// and row-fetch RPCs the coordinator fans out, plus the topology metadata it
// needs to assemble global vectors. A Worker may start empty and receive
// stripes later (SetStripe, or the handler's stripe-install endpoint), and —
// since replicated fleets place several stripes on one member — may serve any
// number of stripes at once, keyed by stripe index. It is safe for concurrent
// use.
type Worker struct {
	mu      sync.RWMutex
	stripes map[int]*Stripe
}

// NewWorker returns a worker serving s; s may be nil for a worker that waits
// to receive its stripes.
func NewWorker(s *Stripe) *Worker {
	w := &Worker{stripes: make(map[int]*Stripe)}
	if s != nil {
		w.stripes[s.Index] = s
	}
	return w
}

// SetStripe installs (or replaces, keyed by stripe index) a served stripe.
func (w *Worker) SetStripe(s *Stripe) {
	if s == nil {
		return
	}
	w.mu.Lock()
	w.stripes[s.Index] = s
	w.mu.Unlock()
}

// RemoveStripe uninstalls the stripe the selector resolves to; removing a
// stripe the worker does not serve is an error. A fleet manager calls it when
// rebalancing moves a stripe off this member.
func (w *Worker) RemoveStripe(index int) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	s, err := w.stripeForLocked(index)
	if err != nil {
		return err
	}
	delete(w.stripes, s.Index)
	return nil
}

// Stripes returns the served stripes sorted by index.
func (w *Worker) Stripes() []*Stripe {
	w.mu.RLock()
	out := make([]*Stripe, 0, len(w.stripes))
	for _, s := range w.stripes {
		out = append(out, s)
	}
	w.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// errNoStripe is returned by RPCs on a worker that has not received a stripe.
var errNoStripe = errors.New("distributed: worker has no stripe installed")

// ErrStripeReplaced reports that a worker's stripe no longer matches the
// graph fingerprint the caller pinned at connect time — typically because a
// new epoch's stripe was installed (or the stripe retagged) after the
// coordinator connected. Callers reconnect to pick up the new snapshot.
var ErrStripeReplaced = errors.New("distributed: worker stripe does not match the pinned graph fingerprint")

// ErrContentMismatch reports that a retag was refused because the worker's
// served payload differs from the content fingerprint the caller expected;
// the caller must ship the full stripe instead.
var ErrContentMismatch = errors.New("distributed: stripe content does not match, retag refused")

// stripeFor resolves a stripe selector: a non-negative index looks the stripe
// up, AnyStripe resolves to the sole served stripe (and fails when the worker
// serves none or several — a replicated member's callers must address their
// stripe explicitly). Callers must hold at least the read lock or accept the
// returned snapshot.
func (w *Worker) stripeFor(index int) (*Stripe, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.stripeForLocked(index)
}

func (w *Worker) stripeForLocked(index int) (*Stripe, error) {
	if index != AnyStripe {
		if s := w.stripes[index]; s != nil {
			return s, nil
		}
		if len(w.stripes) == 0 {
			return nil, errNoStripe
		}
		return nil, fmt.Errorf("distributed: worker does not serve stripe %d", index)
	}
	switch len(w.stripes) {
	case 0:
		return nil, errNoStripe
	case 1:
		for _, s := range w.stripes {
			return s, nil
		}
	}
	return nil, fmt.Errorf("distributed: worker serves %d stripes, select one with the stripe parameter", len(w.stripes))
}

// Retag rebinds the served stripe at index to a new source-graph identity
// (fingerprint and epoch) without replacing its payload. The served payload's
// content fingerprint must equal content; otherwise the call fails with
// ErrContentMismatch and the stripe is left untouched. The rebind installs a
// fresh Stripe value, so in-flight multiplies keep their consistent snapshot
// (and fail their pinned-fingerprint check on the next call, as with a full
// replacement).
func (w *Worker) Retag(index int, graphSum uint32, epoch uint64, content uint32) (WorkerInfo, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	s, err := w.stripeForLocked(index)
	if err != nil {
		return WorkerInfo{}, err
	}
	if s.ContentFingerprint() != content {
		return WorkerInfo{}, fmt.Errorf("%w (serving %08x, caller expects %08x)", ErrContentMismatch, s.ContentFingerprint(), content)
	}
	ns := s.retagged(graphSum, epoch)
	w.stripes[ns.Index] = ns
	return ns.info(), nil
}

// info assembles the wire metadata of one stripe.
func (s *Stripe) info() WorkerInfo {
	return WorkerInfo{
		Protocol: ProtocolVersion,
		Index:    s.Index,
		Count:    s.Count,
		Graph:    s.Graph,
		Epoch:    s.Epoch,
		Content:  s.content,
		NumNodes: s.NumNodes,
		Rows:     s.Rows(),
		OutEdges: len(s.Out.Col),
		InEdges:  len(s.In.Col),
	}
}

// pinned checks the graph fingerprint a caller validated at connect time
// against the stripe's: a stripe replaced mid-lifetime with one from a
// different graph fails the call instead of producing silently mixed results.
func (s *Stripe) pinned(graphSum uint32) error {
	if s.Graph != graphSum {
		return fmt.Errorf("%w (stripe has %08x, caller expects %08x)", ErrStripeReplaced, s.Graph, graphSum)
	}
	return nil
}

// gather is one multiply RPC over this stripe snapshot, into dst (Rows()
// entries).
func (s *Stripe) gather(dir graph.Dir, graphSum uint32, x, dst []float64) error {
	if err := s.pinned(graphSum); err != nil {
		return err
	}
	return s.multiply(dir, x, dst)
}

// Info is the worker side of Transport.Info: the wire metadata of the stripe
// at index.
func (w *Worker) Info(index int) (WorkerInfo, error) {
	s, err := w.stripeFor(index)
	if err != nil {
		return WorkerInfo{}, err
	}
	return s.info(), nil
}

// OutSums is the worker side of Transport.OutSums: the out-weight sums of the
// owned rows of the stripe at index. The result is a copy; callers may keep it.
func (w *Worker) OutSums(index int) ([]float64, error) {
	s, err := w.stripeFor(index)
	if err != nil {
		return nil, err
	}
	return append([]float64(nil), s.OutSums()...), nil
}

// Multiply is the worker side of Transport.Multiply: it gathers over one
// consistent snapshot of the stripe at index, whose graph fingerprint must
// equal graphSum.
func (w *Worker) Multiply(index int, dir graph.Dir, graphSum uint32, x []float64) ([]float64, error) {
	s, err := w.stripeFor(index)
	if err != nil {
		return nil, err
	}
	// The caller keeps the result (Loopback hands it on), so it is not pooled.
	dst := make([]float64, s.Rows())
	if err := s.gather(dir, graphSum, x, dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// MaxStripeUploadBytes caps the body of the stripe-install endpoint.
const MaxStripeUploadBytes = 4 << 30

// Handler returns the worker's HTTP API — the gpserver wire protocol (see
// docs/API.md):
//
//	GET    /healthz          — liveness and served-stripe summary (JSON)
//	GET    /v1/info          — WorkerInfo (JSON); 409 when no stripe is installed
//	GET    /v1/outsums       — owned rows' out-weight sums (binary vector)
//	GET    /v1/outdegs       — owned rows' out-degrees (binary int32 array)
//	POST   /v1/multiply      — ?dir=in|out, body and response binary vectors
//	POST   /v1/rows          — batched row fetch for the online serving path
//	                           (binary, see rows.go for the wire format)
//	POST   /v1/stripe        — install a stripe (binary stripe codec body)
//	POST   /v1/stripe/retag  — ?graph=F&epoch=E&content=C rebind an unchanged
//	                           stripe to a new epoch; 409 on content mismatch
//	DELETE /v1/stripe        — uninstall a stripe (fleet rebalance)
//
// Every per-stripe endpoint accepts an optional ?stripe=N selector; a worker
// serving a single stripe (the classic deployment) may omit it, a replicated
// member serving several stripes requires it. Binary vectors are raw
// little-endian float64 arrays; stripes use the checksummed format of
// graph.EncodeStripe.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", w.handleHealthz)
	mux.HandleFunc("GET /v1/info", w.perStripe(handleInfo))
	mux.HandleFunc("GET /v1/outsums", w.perStripe(handleOutSums))
	mux.HandleFunc("GET /v1/outdegs", w.perStripe(handleOutDegs))
	mux.HandleFunc("POST /v1/multiply", w.perStripe(handleMultiply))
	mux.HandleFunc("POST /v1/rows", w.perStripe(handleRows))
	mux.HandleFunc("POST /v1/stripe", w.handleInstallStripe)
	mux.HandleFunc("POST /v1/stripe/retag", w.perStripe(w.handleRetagStripe))
	mux.HandleFunc("DELETE /v1/stripe", w.perStripe(w.handleRemoveStripe))
	return mux
}

// perStripe adapts one per-stripe RPC to HTTP, the one place a request is
// addressed and a failure becomes a status: it resolves the optional ?stripe=N
// selector (AnyStripe when absent) to a stripe snapshot and the optional
// ?graph=F pin to a fingerprint (the snapshot's own when absent: ad-hoc callers
// accept whatever is installed), and answers 409 when the worker's state is
// what refuses the call — no such stripe, a replaced stripe, a content
// mismatch — and 400 for everything else.
func (w *Worker) perStripe(rpc func(rw http.ResponseWriter, r *http.Request, s *Stripe, graphSum uint32) error) http.HandlerFunc {
	return func(rw http.ResponseWriter, r *http.Request) {
		index := AnyStripe
		if sp := r.URL.Query().Get("stripe"); sp != "" {
			v, err := strconv.Atoi(sp)
			if err != nil || v < 0 {
				workerError(rw, http.StatusBadRequest, "distributed: invalid stripe selector %q", sp)
				return
			}
			index = v
		}
		s, err := w.stripeFor(index)
		if err != nil {
			workerError(rw, http.StatusConflict, "%v", err)
			return
		}
		graphSum := s.Graph
		if gp := r.URL.Query().Get("graph"); gp != "" {
			v, err := strconv.ParseUint(gp, 10, 32)
			if err != nil {
				workerError(rw, http.StatusBadRequest, "distributed: invalid graph fingerprint %q", gp)
				return
			}
			graphSum = uint32(v)
		}
		if err := rpc(rw, r, s, graphSum); err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, errNoStripe) || errors.Is(err, ErrStripeReplaced) || errors.Is(err, ErrContentMismatch) {
				status = http.StatusConflict
			}
			workerError(rw, status, "%v", err)
		}
	}
}

func (w *Worker) handleHealthz(rw http.ResponseWriter, r *http.Request) {
	stripes := w.Stripes()
	if len(stripes) == 0 {
		workerJSON(rw, http.StatusOK, map[string]any{"status": "empty", "stripes": []any{}})
		return
	}
	list := make([]map[string]any, 0, len(stripes))
	for _, s := range stripes {
		list = append(list, map[string]any{
			"stripe":  s.Index,
			"of":      s.Count,
			"rows":    s.Rows(),
			"epoch":   s.Epoch,
			"graph":   s.Graph,
			"content": s.content,
		})
	}
	resp := map[string]any{"status": "ok", "stripes": list}
	if len(stripes) == 1 {
		// Classic single-stripe deployments keep the flat summary fields.
		s := stripes[0]
		resp["stripe"] = s.Index
		resp["of"] = s.Count
		resp["nodes"] = s.NumNodes
		resp["rows"] = s.Rows()
		resp["epoch"] = s.Epoch
		resp["graph"] = s.Graph
		resp["content"] = s.content
	}
	workerJSON(rw, http.StatusOK, resp)
}

func handleInfo(rw http.ResponseWriter, _ *http.Request, s *Stripe, _ uint32) error {
	workerJSON(rw, http.StatusOK, s.info())
	return nil
}

func handleOutSums(rw http.ResponseWriter, _ *http.Request, s *Stripe, _ uint32) error {
	sums := s.OutSums()
	workerBinary(rw, AppendVector(make([]byte, 0, len(sums)*8), sums))
	return nil
}

// parseDir reads a multiply's dir parameter, a graph.Dir in its wire
// spelling (graph.Dir.String): "in" or "out", nothing else.
func parseDir(s string) (graph.Dir, error) {
	for _, d := range [...]graph.Dir{graph.In, graph.Out} {
		if s == d.String() {
			return d, nil
		}
	}
	return 0, fmt.Errorf("distributed: unknown direction %q", s)
}

// handleMultiply decodes, gathers and encodes in pooled buffers (bytePool,
// floatPool), so a warm call allocates nothing proportional to the graph. The
// ResponseWriter has copied or sent the reply by the time Write returns, so
// the buffers go back to their pools when the handler does.
func handleMultiply(rw http.ResponseWriter, r *http.Request, s *Stripe, graphSum uint32) error {
	dir, err := parseDir(r.URL.Query().Get("dir"))
	if err != nil {
		return err
	}
	// The input is the full iteration vector: exactly NumNodes entries, so
	// reading one byte more tells an over-long body.
	raw := vectorBytes(s.NumNodes)
	defer bytePool.Put(raw)
	n, err := io.ReadFull(r.Body, *raw)
	switch {
	case n < s.NumNodes*8:
		return fmt.Errorf("distributed: multiply body truncated at %d of %d entries: %w", n/8, s.NumNodes, err)
	case n > s.NumNodes*8:
		return fmt.Errorf("distributed: multiply body longer than %d entries", s.NumNodes)
	}
	x := pooled[float64](&floatPool, s.NumNodes)
	defer floatPool.Put(x)
	decodeVector(*x, *raw)
	dst := pooled[float64](&floatPool, s.NumNodes)
	defer floatPool.Put(dst)
	out := (*dst)[:s.Rows()]
	if err := s.gather(dir, graphSum, *x, out); err != nil {
		return err
	}
	workerBinary(rw, AppendVector((*raw)[:0], out))
	return nil
}

func (w *Worker) handleRetagStripe(rw http.ResponseWriter, r *http.Request, s *Stripe, graphSum uint32) error {
	q := r.URL.Query()
	epoch, err1 := strconv.ParseUint(q.Get("epoch"), 10, 64)
	content, err2 := strconv.ParseUint(q.Get("content"), 10, 32)
	if !q.Has("graph") || err1 != nil || err2 != nil {
		return fmt.Errorf("distributed: retag needs numeric graph, epoch and content parameters")
	}
	info, err := w.Retag(s.Index, graphSum, epoch, uint32(content))
	if err != nil {
		return err
	}
	workerJSON(rw, http.StatusOK, info)
	return nil
}

func (w *Worker) handleInstallStripe(rw http.ResponseWriter, r *http.Request) {
	s, err := DecodeStripe(http.MaxBytesReader(rw, r.Body, MaxStripeUploadBytes))
	if err != nil {
		workerError(rw, http.StatusBadRequest, "%v", err)
		return
	}
	w.SetStripe(s)
	workerJSON(rw, http.StatusOK, s.info())
}

func (w *Worker) handleRemoveStripe(rw http.ResponseWriter, _ *http.Request, s *Stripe, _ uint32) error {
	if err := w.RemoveStripe(s.Index); err != nil {
		return err
	}
	workerJSON(rw, http.StatusOK, map[string]any{"removed": true})
	return nil
}

func workerJSON(rw http.ResponseWriter, status int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	_ = json.NewEncoder(rw).Encode(v)
}

func workerBinary(rw http.ResponseWriter, body []byte) {
	rw.Header().Set("Content-Type", "application/octet-stream")
	rw.Header().Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = rw.Write(body)
}

func workerError(rw http.ResponseWriter, status int, format string, args ...any) {
	workerJSON(rw, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
