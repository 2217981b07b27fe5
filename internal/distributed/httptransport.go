package distributed

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strings"
	"time"

	"roundtriprank/internal/graph"
)

// DefaultHTTPTimeout bounds each worker RPC when the caller's context carries
// no earlier deadline. One multiply call streams two vectors, so the bound is
// generous; coordinator retries handle the slow-worker case.
const DefaultHTTPTimeout = 30 * time.Second

// MaxIdleConnsPerWorker is how many idle keep-alive connections an
// HTTPTransport keeps to its worker; http.DefaultTransport keeps 2 per host.
// A Distributed solve holds two multiply RPCs on each worker at once (its F
// and T legs) and rtrankd admits 4×GOMAXPROCS concurrent requests, so 64 keeps
// up to 32 concurrent solves on warm connections where 2 would dial a new one
// for most RPCs.
const MaxIdleConnsPerWorker = 64

// HTTPTransport talks the gpserver wire protocol: JSON metadata endpoints and
// binary vector bodies (see Worker.Handler and docs/API.md). Failures are
// classified for the coordinator's retry logic: connection errors and 5xx
// responses are transient, 4xx responses and malformed replies are not.
type HTTPTransport struct {
	base   string
	client *http.Client
	// stripe is the bound stripe index appended to per-stripe RPCs, or
	// AnyStripe for the classic unbound transport (the worker's sole stripe).
	stripe int
}

// NewHTTPTransport returns a Transport for the worker at baseURL (e.g.
// "http://10.0.0.7:7001"): a dedicated client over its own connection pool, a
// clone of http.DefaultTransport that keeps MaxIdleConnsPerWorker idle
// connections, each RPC bounded by DefaultHTTPTimeout.
func NewHTTPTransport(baseURL string) *HTTPTransport {
	pool := http.DefaultTransport.(*http.Transport).Clone()
	pool.MaxIdleConnsPerHost = MaxIdleConnsPerWorker
	return &HTTPTransport{
		base:   strings.TrimRight(baseURL, "/"),
		client: &http.Client{Transport: pool},
		stripe: AnyStripe,
	}
}

// NewLoopback returns an in-process Transport to w: an HTTPTransport whose
// client hands each request to w.Handler() on the caller's goroutine, with no
// listener, connection or goroutine of its own. Every call runs the codec, the
// status mapping and the fingerprint pin of a networked worker, and results
// are copies decoded off the wire, never the stripe's own arrays.
func NewLoopback(w *Worker) *HTTPTransport {
	return &HTTPTransport{
		base:   "http://in-process",
		client: &http.Client{Transport: inProcess{w.Handler()}},
		stripe: AnyStripe,
	}
}

// inProcess is the http.RoundTripper of NewLoopback: it serves a request with
// its handler and returns the recorded response.
type inProcess struct{ h http.Handler }

// RoundTrip implements http.RoundTripper. A request whose context is done
// fails as net/http's would, before the handler sees it. The request's
// WroteRequest hook fires only once ServeHTTP has returned, so the handler
// has read the body by the time a caller reuses its buffer (HTTPTransport.
// Multiply puts it back in bytePool then).
func (p inProcess) RoundTrip(req *http.Request) (*http.Response, error) {
	ctx := req.Context()
	r := req.Clone(ctx)
	if r.Body == nil {
		r.Body = http.NoBody
	}
	defer r.Body.Close()
	if ctx.Err() != nil {
		return nil, context.Cause(ctx)
	}
	rec := httptest.NewRecorder()
	p.h.ServeHTTP(rec, r)
	if trace := httptrace.ContextClientTrace(ctx); trace != nil && trace.WroteRequest != nil {
		trace.WroteRequest(httptrace.WroteRequestInfo{})
	}
	return rec.Result(), nil
}

// ForStripe returns a copy of the transport bound to the stripe with the
// given index: per-stripe RPCs carry an explicit ?stripe=N selector, which a
// multi-stripe fleet member requires. The copy shares the HTTP client (and
// its connection pool) with the receiver.
func (t *HTTPTransport) ForStripe(index int) *HTTPTransport {
	nt := *t
	nt.stripe = index
	return &nt
}

// WithRoundTripper returns a copy of the transport whose requests go through
// wrap(current round tripper), the seam where a test puts a fake between the
// client and the worker: a fault injector, a request counter. What the
// wrapper returns is classified like any network outcome — an error is a
// dropped connection, transient unless the caller cancelled; a 5xx response
// is transient, a 4xx one permanent. The copy has a client of its own; its
// stripe binding is the receiver's.
func (t *HTTPTransport) WithRoundTripper(wrap func(http.RoundTripper) http.RoundTripper) *HTTPTransport {
	nt := *t
	nt.client = &http.Client{Transport: wrap(t.client.Transport)}
	return &nt
}

// withStripe appends the bound stripe selector to an RPC path.
func (t *HTTPTransport) withStripe(path string) string {
	if t.stripe == AnyStripe {
		return path
	}
	sep := "?"
	if strings.Contains(path, "?") {
		sep = "&"
	}
	return fmt.Sprintf("%s%sstripe=%d", path, sep, t.stripe)
}

// Info implements Transport.
func (t *HTTPTransport) Info(ctx context.Context) (WorkerInfo, error) {
	var info WorkerInfo
	resp, err := t.do(ctx, http.MethodGet, t.withStripe("/v1/info"), nil, "", nil)
	if err != nil {
		return info, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&info); err != nil {
		return info, fmt.Errorf("distributed: %s: decode info: %w", t.base, err)
	}
	return info, nil
}

// OutSums implements Transport. The wire format implies the length, and the
// coordinator validates it against the declared row count.
func (t *HTTPTransport) OutSums(ctx context.Context) ([]float64, error) {
	resp, err := t.do(ctx, http.MethodGet, t.withStripe("/v1/outsums"), nil, "", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, &TransientError{Err: fmt.Errorf("distributed: %s: read outsums response: %w", t.base, err)}
	}
	if len(raw)%8 != 0 {
		return nil, fmt.Errorf("distributed: %s: outsums response is %d bytes, not a float64 array", t.base, len(raw))
	}
	out := make([]float64, len(raw)/8)
	decodeVector(out, raw)
	return out, nil
}

// Multiply implements Transport. It runs once per worker per power
// iteration, so its wire buffers are pooled: x is encoded into one that goes
// back to the pool once net/http has written it, and the reply is read into
// another by its Content-Length. Only the returned slice is allocated.
func (t *HTTPTransport) Multiply(ctx context.Context, dir graph.Dir, graphSum uint32, x []float64) ([]float64, error) {
	req := vectorBytes(len(x))
	*req = AppendVector((*req)[:0], x)
	path := t.withStripe(fmt.Sprintf("/v1/multiply?dir=%s&graph=%d", dir, graphSum))
	resp, err := t.do(ctx, http.MethodPost, path, *req, "application/octet-stream", func() { bytePool.Put(req) })
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	// A stripe owns at most len(x) rows: bound the reply by the request
	// before reading it.
	size := resp.ContentLength
	switch {
	case size < 0:
		return nil, fmt.Errorf("distributed: %s: multiply response has no Content-Length", t.base)
	case size > int64(len(x))*8:
		return nil, fmt.Errorf("distributed: %s: multiply response of %d bytes is longer than the %d-entry request", t.base, size, len(x))
	case size%8 != 0:
		return nil, fmt.Errorf("distributed: %s: multiply response is %d bytes, not a float64 array", t.base, size)
	}
	raw := vectorBytes(len(x))
	defer bytePool.Put(raw)
	if _, err := io.ReadFull(resp.Body, (*raw)[:size]); err != nil {
		return nil, &TransientError{Err: fmt.Errorf("distributed: %s: read multiply response: %w", t.base, err)}
	}
	out := make([]float64, size/8)
	decodeVector(out, *raw)
	return out, nil
}

// SendStripe implements StripeInstaller by POSTing the binary stripe codec to
// the worker's install endpoint.
func (t *HTTPTransport) SendStripe(ctx context.Context, s *Stripe) error {
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		return err
	}
	resp, err := t.do(ctx, http.MethodPost, "/v1/stripe", buf.Bytes(), "application/octet-stream", nil)
	if err != nil {
		return err
	}
	return resp.Body.Close()
}

// RetagStripe implements StripeInstaller by POSTing to the worker's retag
// endpoint. The worker answers 409 on a content mismatch, which surfaces as a
// non-transient error so the caller falls back to shipping the full stripe.
func (t *HTTPTransport) RetagStripe(ctx context.Context, graphSum uint32, epoch uint64, content uint32) error {
	path := t.withStripe(fmt.Sprintf("/v1/stripe/retag?graph=%d&epoch=%d&content=%d", graphSum, epoch, content))
	resp, err := t.do(ctx, http.MethodPost, path, nil, "", nil)
	if err != nil {
		return err
	}
	return resp.Body.Close()
}

// RemoveStripe implements StripeInstaller by DELETEing the worker's stripe
// endpoint; the bound stripe selector names which stripe to drop.
func (t *HTTPTransport) RemoveStripe(ctx context.Context) error {
	resp, err := t.do(ctx, http.MethodDelete, t.withStripe("/v1/stripe"), nil, "", nil)
	if err != nil {
		return err
	}
	return resp.Body.Close()
}

// Close implements Transport.
func (t *HTTPTransport) Close() error {
	t.client.CloseIdleConnections()
	return nil
}

// do performs one HTTP RPC and classifies failures. It returns a 200
// response, whose body the caller must close. When release is not nil, it
// runs once net/http has finished writing the request body, the one read of
// payload — possibly after do returns, as when a worker answers 409 without
// reading the body and leaves the transport still writing it — and the
// caller may then reuse payload. Such a request is sent at most once (it has
// no GetBody, so net/http never resends it) and release runs at most once;
// if the body is never written, release never runs.
func (t *HTTPTransport) do(ctx context.Context, method, path string, payload []byte, contentType string, release func()) (*http.Response, error) {
	ctx, cancel := context.WithTimeout(ctx, DefaultHTTPTimeout)
	// cancel must outlive the returned body: tie it to Close.
	if release != nil {
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			WroteRequest: func(httptrace.WroteRequestInfo) { release() },
		})
	}
	var reqBody io.Reader
	if payload != nil {
		reqBody = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, t.base+path, reqBody)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("distributed: %s: %w", t.base, err)
	}
	if release != nil {
		req.GetBody = nil
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := t.client.Do(req)
	if err != nil {
		// Read the cancellation state before cancel() below taints it: a call
		// aborted by the caller must not be retried, while connection
		// failures and per-RPC timeouts are transient.
		aborted := ctx.Err() != nil && context.Cause(ctx) == context.Canceled
		cancel()
		if aborted {
			return nil, err
		}
		return nil, &TransientError{Err: fmt.Errorf("distributed: %s: %w", t.base, err)}
	}
	if resp.StatusCode != http.StatusOK {
		msg := readWorkerError(resp.Body)
		resp.Body.Close()
		cancel()
		err := fmt.Errorf("distributed: %s: %s: %s", t.base, resp.Status, msg)
		if resp.StatusCode >= 500 {
			return nil, &TransientError{Err: err}
		}
		return nil, err
	}
	resp.Body = &cancelingBody{ReadCloser: resp.Body, cancel: cancel}
	return resp, nil
}

// cancelingBody releases the per-RPC timeout context when the response body
// is closed.
type cancelingBody struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b *cancelingBody) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}

// readWorkerError extracts the {"error": ...} message of a failed response,
// falling back to the raw body.
func readWorkerError(r io.Reader) string {
	raw, err := io.ReadAll(io.LimitReader(r, 1<<12))
	if err != nil || len(raw) == 0 {
		return "(no body)"
	}
	var payload struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &payload) == nil && payload.Error != "" {
		return payload.Error
	}
	return strings.TrimSpace(string(raw))
}
