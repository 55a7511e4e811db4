package obs

// Canonical pipeline stage names. Stage histograms, trace spans and log
// lines all spell stages the same way, so a p99 shift on
// stage.latency_ns{stage=X} greps straight to its spans and log lines.
//
// Query path (frontend → serving → back):
const (
	// StageFrontendRequest is the end-to-end sample latency as the
	// frontend sees it (admission through decoded response).
	StageFrontendRequest = "frontend.request"
	// StageFrontendAdmission is time spent acquiring the frontend's
	// overload limiter (queueing for admission).
	StageFrontendAdmission = "frontend.admission"
	// StageFrontendRPC is the residual transport time of the serving RPC:
	// round-trip minus the server-reported stage spans.
	StageFrontendRPC = "frontend.rpc_transport"
	// StageServingQueueWait is time a request waited in the serving
	// worker's actor queue before a shard picked it up.
	StageServingQueueWait = "serving.queue_wait"
	// StageServingKHop is K-hop subgraph assembly from the sample cache.
	StageServingKHop = "serving.khop_assembly"
	// StageServingFeature is feature-vector fetch for the assembled
	// vertices (cache + kvstore).
	StageServingFeature = "serving.feature_fetch"
	// StageServingEncode is wire-encoding the sample result for the reply.
	StageServingEncode = "serving.encode"
)

// Update path (ingest → mq → sampler → serving cache):
const (
	// StageFrontendIngest is appending one update batch to the MQ from the
	// frontend's ingest route.
	StageFrontendIngest = "frontend.ingest_append"
	// StageMQAppend is the broker-side append of one record batch.
	StageMQAppend = "mq.append"
	// StageSamplerRefresh is one reservoir/sample-table refresh step in
	// the sampling worker.
	StageSamplerRefresh = "sampler.refresh"
	// StageServingCacheApply is applying one sampler-published update to
	// the serving cache.
	StageServingCacheApply = "serving.cache_apply"
)
