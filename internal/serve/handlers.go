package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"privim/internal/dataset"
	"privim/internal/gnn"
	"privim/internal/graph"
	"privim/internal/im"
	"privim/internal/ledger"
	"privim/internal/obs"
	"privim/internal/tensor"
)

// handleHealth reports liveness; a draining server answers 503 so load
// balancers stop routing to it while in-flight work completes.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetrics serves the live registry snapshot (request counters,
// latency histograms, cache hit/miss, job and training telemetry).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.Snapshot())
}

// --- model registry CRUD ---

func (s *Server) handleModelList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"models": s.models.List()})
}

// handleModelPut accepts a raw gnn.Save checkpoint body under
// /v1/models/{name}; ?version=N pins a version (default: next free).
func (s *Server) handleModelPut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if strings.ContainsRune(name, '@') {
		httpError(w, http.StatusBadRequest, "upload to a bare model name, not a versioned reference")
		return
	}
	version := 0
	if v := r.URL.Query().Get("version"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			httpError(w, http.StatusBadRequest, "bad version %q", v)
			return
		}
		version = n
	}
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	m, err := gnn.Load(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "decoding checkpoint: %v", err)
		return
	}
	info, err := s.models.Put(name, version, m)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.opts.Logf("serve: model %s registered (%s, %d params)", info.Ref(), info.Kind, info.Params)
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleModelGet(w http.ResponseWriter, r *http.Request) {
	e, err := s.models.Resolve(r.PathValue("name"))
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, e.info)
}

func (s *Server) handleModelDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.models.Delete(r.PathValue("name")); err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// --- graph store CRUD ---

func (s *Server) handleGraphList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"graphs": s.graphs.List()})
}

// handleGraphPut accepts a privim-edgelist or SNAP-style edge-list body
// under /v1/graphs/{name} and returns the stored graph's fingerprint.
func (s *Server) handleGraphPut(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", tooLarge.Limit)
			return
		}
		httpError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	g, err := dataset.ParseGraph(data)
	if err != nil {
		httpError(w, http.StatusBadRequest, "parsing graph: %v", err)
		return
	}
	info, err := s.graphs.Put(r.PathValue("name"), g)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.opts.Logf("serve: graph %s stored (|V|=%d |E|=%d fp=%s)",
		info.Name, info.Nodes, info.Edges, info.Fingerprint)
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleGraphGet(w http.ResponseWriter, r *http.Request) {
	e, err := s.graphs.Get(r.PathValue("name"))
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, e.info)
}

func (s *Server) handleGraphDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.graphs.Delete(r.PathValue("name")); err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// --- query endpoints ---

// queryRequest is the POST /v1/score and /v1/seeds body.
type queryRequest struct {
	Model string `json:"model"` // "name" or "name@version"
	Graph string `json:"graph"` // graph store name
	K     int    `json:"k,omitempty"`
}

// queryResponse answers both query endpoints; Seeds is set for /v1/seeds
// and Scores for /v1/score. Graph is the store name the request asked
// for, and Cached reports that no forward pass ran for this request.
type queryResponse struct {
	Model       string         `json:"model"`
	Graph       string         `json:"graph"`
	Fingerprint string         `json:"fingerprint"`
	K           int            `json:"k,omitempty"`
	Seeds       []graph.NodeID `json:"seeds,omitempty"`
	Scores      []float64      `json:"scores,omitempty"`
	Cached      bool           `json:"cached"`
}

// resolveQuery decodes and resolves the shared parts of a query request.
func (s *Server) resolveQuery(w http.ResponseWriter, r *http.Request) (*modelEntry, *graphEntry, queryRequest, bool) {
	var req queryRequest
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "decoding request: %v", err)
		return nil, nil, req, false
	}
	if req.K < 0 {
		httpError(w, http.StatusBadRequest, "negative k %d", req.K)
		return nil, nil, req, false
	}
	me, err := s.models.Resolve(req.Model)
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return nil, nil, req, false
	}
	ge, err := s.graphs.Get(req.Graph)
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return nil, nil, req, false
	}
	if me.info.InputDim != dataset.NumStructuralFeatures {
		httpError(w, http.StatusBadRequest,
			"model %s expects %d input features, server scores with %d structural features",
			me.info.Ref(), me.info.InputDim, dataset.NumStructuralFeatures)
		return nil, nil, req, false
	}
	return me, ge, req, true
}

// score returns the ranked forward pass of me over ge. A hit (hit true)
// comes from the LRU cache. A miss runs the model over the standard
// structural features, as Result.Scores does, ranks the nodes once and
// caches the pass. The pass honors the request context between layers,
// so a canceled request (client gone, or the QueryTimeout deadline
// http.TimeoutHandler set on the request context) stops computing
// instead of finishing for nobody; score then answers 503 itself,
// returns ok false and caches nothing.
func (s *Server) score(w http.ResponseWriter, r *http.Request, me *modelEntry, ge *graphEntry) (sc *scored, hit, ok bool) {
	key := cacheKey{Model: me.info.Ref(), Fingerprint: ge.fp}
	if sc, ok := s.cache.Get(key); ok {
		s.reg.Counter("serve.cache.hits").Inc()
		return sc, true, true
	}
	s.reg.Counter("serve.cache.misses").Inc()
	clk := obs.WatchCancel(r.Context())
	defer clk.Stop()
	x := tensor.FromSlice(ge.g.NumNodes(), dataset.NumStructuralFeatures, dataset.StructuralFeatures(ge.g))
	scores, err := me.model.Score(r.Context(), ge.g, x)
	if err != nil {
		s.reg.Emit(obs.Canceled{Phase: "query", Reason: err.Error(), Latency: clk.Latency()})
		httpError(w, http.StatusServiceUnavailable, "query canceled: %v", err)
		return nil, false, false
	}
	sc = &scored{scores: scores, rank: im.TopKScores(scores, len(scores))}
	s.cache.Put(key, sc)
	return sc, false, true
}

func (s *Server) handleSeeds(w http.ResponseWriter, r *http.Request) {
	me, ge, req, ok := s.resolveQuery(w, r)
	if !ok {
		return
	}
	k := req.K
	if k == 0 {
		k = 10
	}
	sc, hit, ok := s.score(w, r, me, ge)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, queryResponse{
		Model:       me.info.Ref(),
		Graph:       req.Graph,
		Fingerprint: ge.info.Fingerprint,
		K:           k,
		Seeds:       sc.rank[:min(k, len(sc.rank))],
		Cached:      hit,
	})
}

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	me, ge, req, ok := s.resolveQuery(w, r)
	if !ok {
		return
	}
	if req.K != 0 {
		httpError(w, http.StatusBadRequest, "k is a /v1/seeds parameter; /v1/score returns all nodes")
		return
	}
	sc, hit, ok := s.score(w, r, me, ge)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, queryResponse{
		Model:       me.info.Ref(),
		Graph:       req.Graph,
		Fingerprint: ge.info.Fingerprint,
		Scores:      sc.scores,
		Cached:      hit,
	})
}

// --- async training jobs ---

// TenantHeader names the budget account a training job charges; absent
// means DefaultTenant. Tenant names follow the same grammar as model and
// graph names.
const TenantHeader = "X-Privim-Tenant"

// tenantOf resolves and validates the request's tenant; ok is false
// after an error response has been written.
func tenantOf(w http.ResponseWriter, r *http.Request) (string, bool) {
	tenant := r.Header.Get(TenantHeader)
	if tenant == "" {
		return DefaultTenant, true
	}
	if !validName(tenant) {
		httpError(w, http.StatusBadRequest, "invalid tenant %q", tenant)
		return "", false
	}
	return tenant, true
}

// decodeTrainRequest decodes a POST /v1/train body and admits it, before
// a job exists or any ε is reserved: a valid model name, the trainer's
// own Validate, and a model that holds no more weight bytes than the
// daemon accepts as a model upload (maxBytes), so a short body cannot
// make a job allocate what no recover catches.
func decodeTrainRequest(r io.Reader, maxBytes int64) (TrainRequest, error) {
	var req TrainRequest
	if err := json.NewDecoder(r).Decode(&req); err != nil {
		return req, fmt.Errorf("decoding request: %w", err)
	}
	if req.ModelName != "" && !validName(req.ModelName) {
		return req, fmt.Errorf("invalid model name %q", req.ModelName)
	}
	cfg := req.config()
	if err := cfg.Validate(); err != nil {
		return req, err
	}
	weights, err := cfg.Model().WeightCount()
	if err == nil && int64(weights) > maxBytes/8 {
		err = fmt.Errorf("model of %d weights exceeds the %d-byte model limit", weights, maxBytes)
	}
	return req, err
}

func (s *Server) handleTrain(w http.ResponseWriter, r *http.Request) {
	req, err := decodeTrainRequest(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes), s.opts.MaxBodyBytes)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	tenant, ok := tenantOf(w, r)
	if !ok {
		return
	}
	ge, err := s.graphs.Get(req.Graph)
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	// The withTrace middleware put the request's trace ID in the context;
	// storing it on the job ties the async work back to this request.
	status, err := s.jobs.Submit(req, ge.g, tenant, obs.TraceFromContext(r.Context()))
	var exhausted *ledger.ExhaustedError
	switch {
	case errors.As(err, &exhausted):
		// Machine-readable denial: the client learns exactly how much ε is
		// left so it can resize or route the job elsewhere.
		writeJSON(w, http.StatusForbidden, map[string]any{
			"error":     "budget_exhausted",
			"tenant":    exhausted.Balance.Tenant,
			"graph":     exhausted.Balance.Graph,
			"requested": exhausted.Requested,
			"budget":    exhausted.Balance.Budget,
			"committed": exhausted.Balance.Committed,
			"reserved":  exhausted.Balance.Reserved,
			"remaining": exhausted.Balance.Remaining,
		})
		return
	case errors.Is(err, errQueueFull):
		httpError(w, http.StatusTooManyRequests, "%v", err)
		return
	case errors.Is(err, errDraining):
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, status)
}

// handleBudget reports the calling tenant's budget position across every
// graph it has spent against — committed, reserved, and remaining ε.
func (s *Server) handleBudget(w http.ResponseWriter, r *http.Request) {
	if s.budget == nil {
		httpError(w, http.StatusNotFound, "budget tracking is not enabled")
		return
	}
	tenant, ok := tenantOf(w, r)
	if !ok {
		return
	}
	balances := s.budget.Balances(tenant)
	if balances == nil {
		balances = []ledger.Balance{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"tenant":   tenant,
		"enforced": s.budget.Enforced(),
		"budgets":  balances,
	})
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.jobs.List()})
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	status, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, status)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	status, err := s.jobs.Cancel(r.PathValue("id"))
	if err != nil {
		code := http.StatusConflict
		if strings.Contains(err.Error(), "not found") {
			code = http.StatusNotFound
		}
		httpError(w, code, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, status)
}
