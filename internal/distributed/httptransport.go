package distributed

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"time"
)

// DefaultHTTPTimeout bounds each worker RPC when the caller's context carries
// no earlier deadline. One multiply call streams two vectors, so the bound is
// generous; coordinator retries handle the slow-worker case.
const DefaultHTTPTimeout = 30 * time.Second

// HTTPTransport talks the gpserver wire protocol: JSON metadata endpoints and
// binary vector bodies (see Worker.Handler and docs/API.md). Failures are
// classified for the coordinator's retry logic: connection errors and 5xx
// responses are transient, 4xx responses and malformed replies are not.
type HTTPTransport struct {
	base    string
	client  *http.Client
	timeout time.Duration
	// stripe is the bound stripe index appended to per-stripe RPCs, or
	// AnyStripe for the classic unbound transport (the worker's sole stripe).
	stripe int
}

// NewHTTPTransport returns a Transport for the worker at baseURL (e.g.
// "http://10.0.0.7:7001"): a dedicated client over http.DefaultTransport's
// connection pool, each RPC bounded by DefaultHTTPTimeout.
func NewHTTPTransport(baseURL string) *HTTPTransport {
	return &HTTPTransport{
		base:    strings.TrimRight(baseURL, "/"),
		client:  &http.Client{},
		timeout: DefaultHTTPTimeout,
		stripe:  AnyStripe,
	}
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
	body, err := t.do(ctx, http.MethodGet, t.withStripe("/v1/info"), nil, "")
	if err != nil {
		return info, err
	}
	defer body.Close()
	if err := json.NewDecoder(io.LimitReader(body, 1<<16)).Decode(&info); err != nil {
		return info, fmt.Errorf("distributed: %s: decode info: %w", t.base, err)
	}
	return info, nil
}

// OutSums implements Transport. The wire format implies the length, and the
// coordinator validates it against the declared row count.
func (t *HTTPTransport) OutSums(ctx context.Context) ([]float64, error) {
	body, err := t.do(ctx, http.MethodGet, t.withStripe("/v1/outsums"), nil, "")
	if err != nil {
		return nil, err
	}
	defer body.Close()
	return t.readVectorBody(body, "outsums")
}

// Multiply implements Transport.
func (t *HTTPTransport) Multiply(ctx context.Context, dir Direction, graphSum uint32, x []float64) ([]float64, error) {
	req := AppendVector(make([]byte, 0, len(x)*8), x)
	path := t.withStripe(fmt.Sprintf("/v1/multiply?dir=%s&graph=%d", dir, graphSum))
	body, err := t.do(ctx, http.MethodPost, path, req, "application/octet-stream")
	if err != nil {
		return nil, err
	}
	defer body.Close()
	return t.readVectorBody(body, "multiply")
}

// readVectorBody reads a length-implied binary vector response to EOF and
// decodes it in place — this runs once per worker per power iteration.
func (t *HTTPTransport) readVectorBody(body io.Reader, what string) ([]float64, error) {
	raw, err := io.ReadAll(body)
	if err != nil {
		return nil, &TransientError{Err: fmt.Errorf("distributed: %s: read %s response: %w", t.base, what, err)}
	}
	if len(raw)%8 != 0 {
		return nil, fmt.Errorf("distributed: %s: %s response is %d bytes, not a float64 array", t.base, what, len(raw))
	}
	out := make([]float64, len(raw)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
	}
	return out, nil
}

// SendStripe implements StripeInstaller by POSTing the binary stripe codec to
// the worker's install endpoint.
func (t *HTTPTransport) SendStripe(ctx context.Context, s *Stripe) error {
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		return err
	}
	body, err := t.do(ctx, http.MethodPost, "/v1/stripe", buf.Bytes(), "application/octet-stream")
	if err != nil {
		return err
	}
	return body.Close()
}

// RetagStripe implements StripeInstaller by POSTing to the worker's retag
// endpoint. The worker answers 409 on a content mismatch, which surfaces as a
// non-transient error so the caller falls back to shipping the full stripe.
func (t *HTTPTransport) RetagStripe(ctx context.Context, graphSum uint32, epoch uint64, content uint32) error {
	path := t.withStripe(fmt.Sprintf("/v1/stripe/retag?graph=%d&epoch=%d&content=%d", graphSum, epoch, content))
	body, err := t.do(ctx, http.MethodPost, path, nil, "")
	if err != nil {
		return err
	}
	return body.Close()
}

// RemoveStripe implements StripeInstaller by DELETEing the worker's stripe
// endpoint; the bound stripe selector names which stripe to drop.
func (t *HTTPTransport) RemoveStripe(ctx context.Context) error {
	body, err := t.do(ctx, http.MethodDelete, t.withStripe("/v1/stripe"), nil, "")
	if err != nil {
		return err
	}
	return body.Close()
}

// Close implements Transport.
func (t *HTTPTransport) Close() error {
	t.client.CloseIdleConnections()
	return nil
}

// do performs one HTTP RPC and classifies failures. The returned ReadCloser
// is the response body of a 200 response; the caller must close it.
func (t *HTTPTransport) do(ctx context.Context, method, path string, payload []byte, contentType string) (io.ReadCloser, error) {
	ctx, cancel := context.WithTimeout(ctx, t.timeout)
	// cancel must outlive the returned body: tie it to Close.
	var reqBody io.Reader
	if payload != nil {
		reqBody = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, t.base+path, reqBody)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("distributed: %s: %w", t.base, err)
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
	return &cancelingBody{ReadCloser: resp.Body, cancel: cancel}, nil
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
