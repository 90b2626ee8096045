package connquery

import "time"

// config holds DB construction parameters.
type config struct {
	cacheBytes int64
	noPlanner  bool

	// Durable-tier knobs, consumed by OpenDurable/OpenDurableSharded and
	// ignored by the in-memory constructors.
	boot        *bootstrapData
	groupWindow time.Duration
	ckptEvery   int
	syncAck     bool
}

func defaultConfig() config {
	return config{cacheBytes: DefaultAnswerCacheBytes}
}

// bootstrapData is the initial dataset for a fresh durable directory.
type bootstrapData struct {
	points    []Point
	obstacles []Rect
}

// Option configures Open.
type Option func(*config)

// WithAnswerCache sets the answer cache budget in bytes
// (DefaultAnswerCacheBytes when the option is absent). Exec serves repeated
// requests at an unchanged epoch straight from the cache, mutations
// invalidate only the entries whose spatial impact region they touch, and
// Watch delivers promoted answers without re-executing. bytes <= 0 disables
// caching for the handle; WithNoCache bypasses it for a single call.
// Cached answers share payloads across callers — results must be treated
// as read-only, which has always been the library's contract.
func WithAnswerCache(bytes int64) Option {
	return func(c *config) { c.cacheBytes = bytes }
}

// WithPlanner enables the shared-subcomputation execution planner (the
// default): concurrent Execs whose query regions fall into the same
// (epoch, quantized cell) group share one region-scoped sight-line
// certificate table instead of each paying the full private
// visibility-graph cost. Answers and the machine-independent metrics are
// bit-identical with the planner on or off; only throughput under
// overlapping query storms changes. See DB.PlannerStats for the counters.
func WithPlanner() Option {
	return func(c *config) { c.noPlanner = false }
}

// WithNoPlanner disables the execution planner for the handle: every Exec
// runs the private path unconditionally. The escape hatch exists for
// differential testing (plandiff_test.go twins a planner handle against a
// WithNoPlanner one) and for latency-critical deployments that prefer no
// cross-query coupling.
func WithNoPlanner() Option {
	return func(c *config) { c.noPlanner = true }
}

// WithBootstrapData supplies the initial dataset for OpenDurable and
// OpenDurableSharded when the directory holds no durable state yet: the
// world is built exactly as Open/OpenSharded would (same validation, same
// IDs, epoch 1) and an initial checkpoint is written before the call
// returns. The option is an error when the directory already has state —
// silently ignoring it could hide an operator pointing a seeded boot at
// the wrong directory. In-memory constructors ignore it.
func WithBootstrapData(points []Point, obstacles []Rect) Option {
	return func(c *config) { c.boot = &bootstrapData{points: points, obstacles: obstacles} }
}

// WithGroupCommit sets the WAL group-commit window for the durable
// constructors. Zero (the default) is strict durability: every mutation's
// log record is fsynced before the mutation publishes, so a recovered
// instance resumes at the exact pre-crash epoch. A positive window batches
// fsyncs: mutations publish immediately and the log tail reaches disk
// within one window, so a crash can lose up to the window's worth of the
// newest mutations — recovery still lands on a consistent earlier epoch,
// never a torn state. In-memory constructors ignore the option.
func WithGroupCommit(window time.Duration) Option {
	return func(c *config) { c.groupWindow = window }
}

// WithSyncAck makes every mutation ack — the public call returning, the
// HTTP endpoint responding — imply durability even under WithGroupCommit:
// the commit path fsyncs the WAL tail before the mutation publishes and
// returns. Without it, a group-commit handle acks up to one window ahead of
// the disk, so an acked mutation can vanish in a crash (the relaxed
// window documented in ARCHITECTURE.md). The cost profile is why the
// option exists separately from strict mode: per-mutation it is strict
// fsync, but a batched DB.Apply tick syncs its whole record group once, so
// the stream path keeps its amortization while acked ticks always survive
// recovery. In-memory constructors ignore the option.
func WithSyncAck() Option {
	return func(c *config) { c.syncAck = true }
}

// WithCheckpointEvery makes the durable tier write a checkpoint (and
// truncate the WAL) automatically after every n logged mutations, bounding
// both recovery replay time and log growth. Zero keeps the default
// (DefaultCheckpointEvery); negative disables automatic checkpoints, for
// callers driving Checkpoint explicitly. In-memory constructors ignore the
// option.
func WithCheckpointEvery(n int) Option {
	return func(c *config) { c.ckptEvery = n }
}

// DefaultCheckpointEvery is the automatic checkpoint interval (in logged
// mutations) when WithCheckpointEvery is not given.
const DefaultCheckpointEvery = 4096
