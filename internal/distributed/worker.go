package distributed

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
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

// RemoveStripe uninstalls the stripe at index (AnyStripe removes the sole
// served stripe) and reports whether a stripe was removed. A fleet manager
// calls it when rebalancing moves a stripe off this member.
func (w *Worker) RemoveStripe(index int) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if index == AnyStripe {
		if len(w.stripes) != 1 {
			return false
		}
		for i := range w.stripes {
			index = i
		}
	}
	if _, ok := w.stripes[index]; !ok {
		return false
	}
	delete(w.stripes, index)
	return true
}

// Stripe returns the sole served stripe, or nil when the worker is empty or
// serves several stripes (address those with StripeAt).
func (w *Worker) Stripe() *Stripe {
	w.mu.RLock()
	defer w.mu.RUnlock()
	if len(w.stripes) != 1 {
		return nil
	}
	for _, s := range w.stripes {
		return s
	}
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

// Retag rebinds the sole served stripe to a new source-graph identity; see
// RetagAt.
func (w *Worker) Retag(graphSum uint32, epoch uint64, content uint32) (WorkerInfo, error) {
	return w.RetagAt(AnyStripe, graphSum, epoch, content)
}

// RetagAt rebinds the served stripe at index to a new source-graph identity
// (fingerprint and epoch) without replacing its payload. The served payload's
// content fingerprint must equal content; otherwise the call fails with
// ErrContentMismatch and the stripe is left untouched. The rebind installs a
// fresh Stripe value, so in-flight multiplies keep their consistent snapshot
// (and fail their pinned-fingerprint check on the next call, as with a full
// replacement).
func (w *Worker) RetagAt(index int, graphSum uint32, epoch uint64, content uint32) (WorkerInfo, error) {
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
		Graph:    s.graphSum,
		Epoch:    s.epoch,
		Content:  s.content,
		NumNodes: s.NumNodes,
		Rows:     s.OwnedNodes(),
		OutEdges: len(s.out.Col),
		InEdges:  len(s.in.Col),
	}
}

// Info implements the worker side of Transport.Info for the sole stripe.
func (w *Worker) Info() (WorkerInfo, error) { return w.InfoAt(AnyStripe) }

// InfoAt returns the wire metadata of the stripe at index.
func (w *Worker) InfoAt(index int) (WorkerInfo, error) {
	s, err := w.stripeFor(index)
	if err != nil {
		return WorkerInfo{}, err
	}
	return s.info(), nil
}

// OutSums implements the worker side of Transport.OutSums for the sole
// stripe; see OutSumsAt.
func (w *Worker) OutSums() ([]float64, error) { return w.OutSumsAt(AnyStripe) }

// OutSumsAt returns the out-weight sums of the owned rows of the stripe at
// index. The result is a copy; callers may keep it.
func (w *Worker) OutSumsAt(index int) ([]float64, error) {
	s, err := w.stripeFor(index)
	if err != nil {
		return nil, err
	}
	return append([]float64(nil), s.OutSums()...), nil
}

// Multiply implements the worker side of Transport.Multiply for the sole
// stripe; see MultiplyAt.
func (w *Worker) Multiply(dir Direction, graphSum uint32, x []float64) ([]float64, error) {
	return w.MultiplyAt(AnyStripe, dir, graphSum, x)
}

// MultiplyAt gathers over one consistent snapshot of the stripe at index.
// graphSum must match the snapshot's graph fingerprint: it pins the graph the
// caller validated at connect time, so a stripe replaced mid-lifetime with
// one from a different graph fails the call instead of producing silently
// mixed results.
func (w *Worker) MultiplyAt(index int, dir Direction, graphSum uint32, x []float64) ([]float64, error) {
	s, err := w.stripeFor(index)
	if err != nil {
		return nil, err
	}
	if s.graphSum != graphSum {
		return nil, fmt.Errorf("%w (stripe has %08x, caller expects %08x)", ErrStripeReplaced, s.graphSum, graphSum)
	}
	dst := make([]float64, s.OwnedNodes())
	switch dir {
	case DirIn:
		err = s.MultiplyIn(x, dst)
	case DirOut:
		err = s.MultiplyOut(x, dst)
	default:
		err = fmt.Errorf("distributed: unknown multiply direction %d", dir)
	}
	if err != nil {
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
	mux.HandleFunc("GET /v1/info", w.handleInfo)
	mux.HandleFunc("GET /v1/outsums", w.handleOutSums)
	mux.HandleFunc("GET /v1/outdegs", w.handleOutDegs)
	mux.HandleFunc("POST /v1/multiply", w.handleMultiply)
	mux.HandleFunc("POST /v1/rows", w.handleRows)
	mux.HandleFunc("POST /v1/stripe", w.handleInstallStripe)
	mux.HandleFunc("POST /v1/stripe/retag", w.handleRetagStripe)
	mux.HandleFunc("DELETE /v1/stripe", w.handleRemoveStripe)
	return mux
}

// stripeParam parses the optional ?stripe=N selector (AnyStripe when absent).
func stripeParam(r *http.Request) (int, error) {
	sp := r.URL.Query().Get("stripe")
	if sp == "" {
		return AnyStripe, nil
	}
	v, err := strconv.Atoi(sp)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("distributed: invalid stripe selector %q", sp)
	}
	return v, nil
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
			"rows":    s.OwnedNodes(),
			"epoch":   s.epoch,
			"graph":   s.graphSum,
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
		resp["rows"] = s.OwnedNodes()
		resp["epoch"] = s.epoch
		resp["graph"] = s.graphSum
		resp["content"] = s.content
	}
	workerJSON(rw, http.StatusOK, resp)
}

func (w *Worker) handleInfo(rw http.ResponseWriter, r *http.Request) {
	index, err := stripeParam(r)
	if err != nil {
		workerError(rw, http.StatusBadRequest, "%v", err)
		return
	}
	info, err := w.InfoAt(index)
	if err != nil {
		workerError(rw, http.StatusConflict, "%v", err)
		return
	}
	workerJSON(rw, http.StatusOK, info)
}

func (w *Worker) handleOutSums(rw http.ResponseWriter, r *http.Request) {
	index, err := stripeParam(r)
	if err != nil {
		workerError(rw, http.StatusBadRequest, "%v", err)
		return
	}
	sums, err := w.OutSumsAt(index)
	if err != nil {
		workerError(rw, http.StatusConflict, "%v", err)
		return
	}
	rw.Header().Set("Content-Type", "application/octet-stream")
	rw.Header().Set("Content-Length", strconv.Itoa(len(sums)*8))
	_, _ = rw.Write(AppendVector(make([]byte, 0, len(sums)*8), sums))
}

func (w *Worker) handleMultiply(rw http.ResponseWriter, r *http.Request) {
	dir, err := ParseDirection(r.URL.Query().Get("dir"))
	if err != nil {
		workerError(rw, http.StatusBadRequest, "%v", err)
		return
	}
	index, err := stripeParam(r)
	if err != nil {
		workerError(rw, http.StatusBadRequest, "%v", err)
		return
	}
	s, err := w.stripeFor(index)
	if err != nil {
		workerError(rw, http.StatusConflict, "%v", err)
		return
	}
	// The optional graph parameter pins the stripe's source graph; callers
	// that omit it (ad-hoc curl) accept whatever stripe is installed.
	graphSum := s.graphSum
	if gp := r.URL.Query().Get("graph"); gp != "" {
		v, err := strconv.ParseUint(gp, 10, 32)
		if err != nil {
			workerError(rw, http.StatusBadRequest, "distributed: invalid graph fingerprint %q", gp)
			return
		}
		graphSum = uint32(v)
	}
	// The input is the full iteration vector: exactly NumNodes entries.
	body := http.MaxBytesReader(rw, r.Body, int64(s.NumNodes)*8+1)
	x, err := ReadVector(body, s.NumNodes, nil)
	if err != nil {
		workerError(rw, http.StatusBadRequest, "%v", err)
		return
	}
	if extra := make([]byte, 1); readsOneByte(body, extra) {
		workerError(rw, http.StatusBadRequest, "distributed: multiply body longer than %d entries", s.NumNodes)
		return
	}
	out, err := w.MultiplyAt(s.Index, dir, graphSum, x)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrStripeReplaced) {
			status = http.StatusConflict
		}
		workerError(rw, status, "%v", err)
		return
	}
	rw.Header().Set("Content-Type", "application/octet-stream")
	rw.Header().Set("Content-Length", strconv.Itoa(len(out)*8))
	_, _ = rw.Write(AppendVector(make([]byte, 0, len(out)*8), out))
}

func readsOneByte(r interface{ Read([]byte) (int, error) }, buf []byte) bool {
	n, _ := r.Read(buf)
	return n > 0
}

func (w *Worker) handleRetagStripe(rw http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	graphSum, err1 := strconv.ParseUint(q.Get("graph"), 10, 32)
	epoch, err2 := strconv.ParseUint(q.Get("epoch"), 10, 64)
	content, err3 := strconv.ParseUint(q.Get("content"), 10, 32)
	if err1 != nil || err2 != nil || err3 != nil {
		workerError(rw, http.StatusBadRequest, "distributed: retag needs numeric graph, epoch and content parameters")
		return
	}
	index, err := stripeParam(r)
	if err != nil {
		workerError(rw, http.StatusBadRequest, "%v", err)
		return
	}
	info, err := w.RetagAt(index, uint32(graphSum), epoch, uint32(content))
	if err != nil {
		workerError(rw, http.StatusConflict, "%v", err)
		return
	}
	workerJSON(rw, http.StatusOK, info)
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

func (w *Worker) handleRemoveStripe(rw http.ResponseWriter, r *http.Request) {
	index, err := stripeParam(r)
	if err != nil {
		workerError(rw, http.StatusBadRequest, "%v", err)
		return
	}
	if !w.RemoveStripe(index) {
		workerError(rw, http.StatusConflict, "distributed: no such stripe to remove")
		return
	}
	workerJSON(rw, http.StatusOK, map[string]any{"removed": true})
}

func workerJSON(rw http.ResponseWriter, status int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	_ = json.NewEncoder(rw).Encode(v)
}

func workerError(rw http.ResponseWriter, status int, format string, args ...any) {
	workerJSON(rw, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
