// Package repro is gnnlab: a pure-Go reproduction of "Performance Analysis
// of Graph Neural Network Frameworks" (Wu, Sun, Sun & Sun, ISPASS 2021).
//
// It contains everything the paper's study needs, built from scratch on the
// standard library:
//
//   - a dense tensor library and tape-based autodiff engine with the
//     message-passing primitives GNNs are made of (internal/tensor,
//     internal/ag);
//   - two framework backends that mirror PyTorch Geometric's and Deep Graph
//     Library's real code paths (batching strategy, fused GSpMM vs
//     gather/scatter, pooling operators, edge-frame semantics);
//   - the six GNN architectures the paper evaluates (GCN, GIN, GraphSAGE,
//     GAT, MoNet, GatedGCN), written once against the backend interface;
//   - seeded synthetic stand-ins for Cora, PubMed, ENZYMES, DD and
//     MNIST-superpixels matching Table I's statistics;
//   - a simulated accelerator that records kernel activity, peak memory and
//     multi-device transfer costs, standing in for the paper's 2080Ti and
//     its profilers;
//   - training recipes and an experiment harness regenerating Tables IV-V
//     and Figs 1-6.
//
// This file re-exports the user-facing API so applications import a single
// package:
//
//	pyg := repro.NewPyG()
//	cora := repro.LoadCora(repro.DataOptions{Seed: 1})
//	model := repro.NewModel("GCN", pyg, repro.ModelConfig{ ... })
//	result := repro.TrainNode(model, cora, repro.NodeOptions{Epochs: 200, LR: 0.01})
package repro

import (
	"fmt"
	"io"
	"time"

	"repro/internal/ag"
	"repro/internal/bench"
	"repro/internal/ckpt"
	"repro/internal/costmodel"
	"repro/internal/datasets"
	"repro/internal/device"
	"repro/internal/fw"
	"repro/internal/fw/dglb"
	"repro/internal/fw/pygeo"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/profile"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/train"
)

// Duration re-exports time.Duration for the training APIs.
type Duration = time.Duration

// Core graph and framework types.
type (
	// Graph is one graph sample (edge list, features, labels).
	Graph = graph.Graph
	// Backend is a GNN framework implementation (PyG-like or DGL-like).
	Backend = fw.Backend
	// Batch is a set of graphs merged for one training iteration.
	Batch = fw.Batch
	// Model is one GNN architecture bound to a backend.
	Model = models.Model
	// ModelConfig carries the paper's Table II/III hyperparameters.
	ModelConfig = models.Config
	// Task selects node- or graph-classification heads.
	Task = models.Task
	// Dataset is a loaded benchmark.
	Dataset = datasets.Dataset
	// DataOptions configures dataset generation (seed, scale).
	DataOptions = datasets.Options
	// Device is a simulated accelerator recording kernels and memory.
	Device = device.Device
	// Cluster is a set of devices for DataParallel experiments.
	Cluster = device.Cluster
	// Parameter is a trainable tensor with gradient.
	Parameter = ag.Parameter
	// LayerTimes records per-layer execution times (Fig 3).
	LayerTimes = profile.LayerTimes
	// Breakdown is the per-phase epoch time split (Figs 1-2).
	Breakdown = profile.Breakdown
)

// Task values.
const (
	NodeClassification  = models.NodeClassification
	GraphClassification = models.GraphClassification
)

// Backends.

// NewPyG returns the PyTorch-Geometric-like backend.
func NewPyG() Backend { return pygeo.New() }

// NewDGL returns the Deep-Graph-Library-like backend.
func NewDGL() Backend { return dglb.New() }

// Models.

// NewModel builds one of the six architectures ("GCN", "GAT", "GraphSAGE",
// "GIN", "MoNet", "GatedGCN") on a backend.
func NewModel(name string, be Backend, cfg ModelConfig) Model { return models.New(name, be, cfg) }

// ModelNames lists the six architectures in the paper's order.
func ModelNames() []string { return models.AllNames() }

// Datasets.

// LoadCora generates the synthetic Cora citation network (Table I row 1).
func LoadCora(opt DataOptions) *Dataset { return datasets.Cora(opt) }

// LoadPubMed generates the synthetic PubMed citation network.
func LoadPubMed(opt DataOptions) *Dataset { return datasets.PubMed(opt) }

// LoadEnzymes generates the synthetic ENZYMES protein dataset.
func LoadEnzymes(opt DataOptions) *Dataset { return datasets.Enzymes(opt) }

// LoadDD generates the synthetic D&D protein dataset.
func LoadDD(opt DataOptions) *Dataset { return datasets.DD(opt) }

// LoadMNIST generates the synthetic MNIST superpixel dataset.
func LoadMNIST(opt DataOptions) *Dataset { return datasets.MNISTSuperpixels(opt) }

// DatasetStats summarizes a dataset in the paper's Table I columns.
type DatasetStats = datasets.TableStats

// StatsOf computes a dataset's Table I statistics (self-loops excluded).
func StatsOf(d *Dataset) DatasetStats { return datasets.Stats(d) }

// PaperTableI returns the paper's published dataset statistics by name.
func PaperTableI() map[string]DatasetStats { return datasets.PaperTableI() }

// Devices.

// SetWorkers sets how many host CPU workers the compute kernels may use and
// returns the previous setting. The default is GOMAXPROCS (overridable with
// the GNNLAB_WORKERS environment variable); results are bit-identical for
// any worker count.
func SetWorkers(n int) int { return parallel.SetWorkers(n) }

// Workers returns the current kernel worker-pool size.
func Workers() int { return parallel.Workers() }

// NewDevice returns a 2080Ti-like simulated accelerator.
func NewDevice() *Device { return device.Default() }

// NewGPUCluster returns n simulated devices joined by a PCIe-like link.
func NewGPUCluster(n int) *Cluster {
	return device.NewCluster(n, device.RTX2080Ti(), device.PCIe3x16())
}

// Training.
type (
	// NodeOptions configures full-batch node classification training.
	NodeOptions = train.NodeOptions
	// NodeResult is one node-classification run's outcome.
	NodeResult = train.NodeResult
	// GraphOptions configures mini-batch graph classification training.
	GraphOptions = train.GraphOptions
	// FoldResult is one cross-validation round's outcome.
	FoldResult = train.FoldResult
	// CVResult aggregates a cross-validation run.
	CVResult = train.CVResult
	// DPOptions configures DataParallel multi-device training.
	DPOptions = train.DPOptions
	// DPEpochStats reports one DataParallel epoch.
	DPEpochStats = train.DPEpochStats
)

// TrainNode runs one full-batch node-classification training.
func TrainNode(m Model, d *Dataset, opt NodeOptions) NodeResult { return train.TrainNode(m, d, opt) }

// TrainGraphCV trains a fresh model per cross-validation round with the
// paper's recipe and aggregates accuracy and timing.
func TrainGraphCV(factory func(seed uint64) Model, d *Dataset, folds int, seed uint64, opt GraphOptions) CVResult {
	splits := datasets.CrossValidationSplits(
		datasets.StratifiedKFold(tensor.NewRNG(seed), d.GraphLabels(), folds))
	return train.RunGraphCV(factory, d, splits, opt)
}

// TrainDataParallel runs DataParallel training over a simulated cluster and
// returns per-epoch stats plus the mean modelled epoch time (Fig 6's metric).
func TrainDataParallel(m Model, d *Dataset, opt DPOptions) ([]DPEpochStats, Duration) {
	return train.RunDataParallel(m, d, opt)
}

// Evaluation.

// Confusion is a class confusion matrix with accuracy and F1 helpers.
type Confusion = train.Confusion

// EvalConfusionNode evaluates a node classifier over the given node indices.
func EvalConfusionNode(m Model, d *Dataset, idx []int, dev *Device) *Confusion {
	return train.ConfusionNode(m, d, idx, dev)
}

// EvalConfusionGraphs evaluates a graph classifier over the indexed graphs.
func EvalConfusionGraphs(m Model, d *Dataset, idx []int, batchSize int, dev *Device) *Confusion {
	return train.ConfusionGraphs(m, d, idx, batchSize, dev)
}

// Checkpointing.

// SaveModel serializes a model's parameters to w (binary, checksummed).
func SaveModel(w io.Writer, m Model) error { return nn.Save(w, m.Params()) }

// LoadModel restores a model's parameters from r; the model must have been
// built with the identical architecture and configuration.
func LoadModel(r io.Reader, m Model) error { return nn.Load(r, m.Params()) }

// Crash-safe training checkpoints (GNNCKPT2 training-state format).
type (
	// Checkpointing configures crash-safe snapshots and resume for the
	// training recipes; embed it (zero value = disabled) via the
	// CheckpointDir/CheckpointEvery/CheckpointKeep/Resume fields on
	// NodeOptions, GraphOptions and DPOptions.
	Checkpointing = train.Checkpointing
	// CheckpointDir manages one directory of training-state checkpoints:
	// atomic saves, keep-last-K retention and a corruption-tolerant
	// recovery scan.
	CheckpointDir = ckpt.Dir
	// CheckpointState is a training run's full resumable state.
	CheckpointState = ckpt.State
)

// ErrNoCheckpoint reports that a recovery scan found nothing recoverable.
var ErrNoCheckpoint = ckpt.ErrNoCheckpoint

// OpenCheckpointDir creates (if needed) and wraps a checkpoint directory
// with keep-last-K retention (keep < 1 keeps everything).
func OpenCheckpointDir(path string, keep int) (*CheckpointDir, error) { return ckpt.Open(path, keep) }

// LoadModelFromCheckpointDir fills m's parameters from the newest
// recoverable training checkpoint in dir — how a serving process pulls
// weights out of a training run's snapshots. Returns the loaded file path.
func LoadModelFromCheckpointDir(dir string, m Model) (string, error) {
	d, err := ckpt.Open(dir, 0)
	if err != nil {
		return "", err
	}
	return d.Load(&ckpt.State{Params: m.Params()})
}

// Experiments (the paper's tables and figures).
type (
	// ExperimentSettings selects the Full or Quick measurement profile.
	ExperimentSettings = bench.Settings
	// Table4Row / Table5Row / BreakdownRow / LayerRow / Fig6Row are the
	// structured results of each experiment.
	Table4Row    = bench.Table4Row
	Table5Row    = bench.Table5Row
	BreakdownRow = bench.BreakdownRow
	LayerRow     = bench.LayerRow
	Fig6Row      = bench.Fig6Row
)

// RunTable4 regenerates Table IV (node classification).
func RunTable4(s ExperimentSettings) []Table4Row { return bench.Table4(s) }

// RunTable5 regenerates Table V (graph classification).
func RunTable5(s ExperimentSettings) []Table5Row { return bench.Table5(s) }

// RunFig1 regenerates Fig 1 (ENZYMES epoch-time breakdown).
func RunFig1(s ExperimentSettings) []BreakdownRow { return bench.Fig1(s) }

// RunFig2 regenerates Fig 2 (DD epoch-time breakdown).
func RunFig2(s ExperimentSettings) []BreakdownRow { return bench.Fig2(s) }

// RunFig3 regenerates Fig 3 (layer-wise execution times).
func RunFig3(s ExperimentSettings) []LayerRow { return bench.Fig3(s) }

// RunFig4 regenerates Fig 4 (peak memory usage).
func RunFig4(s ExperimentSettings) []BreakdownRow { return bench.Fig4(s) }

// RunFig5 regenerates Fig 5 (GPU utilization).
func RunFig5(s ExperimentSettings) []BreakdownRow { return bench.Fig5(s) }

// RunFig6 regenerates Fig 6 (multi-GPU scaling).
func RunFig6(s ExperimentSettings) []Fig6Row { return bench.Fig6(s) }

// Serving (batched inference).
type (
	// Server coalesces single-graph prediction requests into mini-batches
	// and fans them out to a pool of model replicas.
	Server = serve.Server
	// ServeOptions tunes batching, queueing and deadlines.
	ServeOptions = serve.Options
	// ServeReplica is one forward-only model instance behind a Server.
	ServeReplica = serve.Replica
	// ServeStats is a snapshot of the server's counters and latency split.
	ServeStats = serve.Stats
	// Prediction is the per-request inference result.
	Prediction = serve.Prediction
)

// Serving errors, re-exported for errors.Is checks at call sites.
var (
	ErrServeQueueFull        = serve.ErrQueueFull
	ErrServeClosed           = serve.ErrClosed
	ErrServeInvalid          = serve.ErrInvalid
	ErrServePredictedOverSLO = serve.ErrPredictedOverSLO
)

// Cost model (learned latency prediction and SLA-aware admission control).
type (
	// CostPredictor is a fitted per-model latency predictor: a linear
	// regression from graph metrics (nodes, edges, density, degree
	// distribution) to forward latency. Wire it into ServeOptions.Predictor
	// to arm admission control.
	CostPredictor = costmodel.Predictor
	// CostFeatures are the graph metrics the cost model regresses over.
	CostFeatures = costmodel.Features
	// CostSample is one sweep measurement (features plus measured seconds).
	CostSample = costmodel.Sample
	// LatencyPredictor is the admission-control contract: predict the
	// forward latency of a coalesced batch before it is dispatched.
	LatencyPredictor = serve.LatencyPredictor
)

// CostSweep measures m's forward latency across the synthetic topology
// families and returns one sample per measurement; see costmodel.Sweep.
func CostSweep(m Model, numFeatures int, opt costmodel.SweepOptions) []CostSample {
	return costmodel.Sweep(m, numFeatures, opt)
}

// CostFit regresses latency against graph metrics and returns the fitted
// predictor; see costmodel.Fit.
func CostFit(samples []CostSample, opt costmodel.FitOptions) (*CostPredictor, error) {
	return costmodel.Fit(samples, opt)
}

// NewGraphFromEdgeList validates an edge list plus per-node features from an
// untrusted source (e.g. a serving request) and builds a Graph.
func NewGraphFromEdgeList(numNodes int, src, dst []int, x [][]float64) (*Graph, error) {
	return graph.FromEdgeList(numNodes, src, dst, x)
}

// NewServeReplica wraps a graph-classification model and a device as one
// serving replica. Eval-mode forwards are side-effect-free, so several
// replicas may share the same model.
func NewServeReplica(m Model, dev *Device) ServeReplica { return serve.NewModelReplica(m, dev) }

// NewServer starts a batched-inference server with n replicas of m, each on
// its own simulated device. Shut it down with (*Server).Shutdown.
func NewServer(m Model, replicas int, opt ServeOptions) *Server {
	if replicas < 1 {
		replicas = 1
	}
	reps := make([]ServeReplica, replicas)
	for i := range reps {
		reps[i] = serve.NewModelReplica(m, device.New(fmt.Sprintf("cuda:%d", i), device.RTX2080Ti()))
	}
	return serve.New(reps, opt)
}

// Observability (metrics registry and span tracer).
type (
	// MetricsRegistry holds labeled counters, gauges and histograms and
	// renders them as deterministic Prometheus text exposition.
	MetricsRegistry = obs.Registry
	// Tracer records nested spans into a bounded ring buffer and exports
	// them, merged with kernel events, as Chrome-trace JSON for Perfetto.
	Tracer = obs.Tracer
	// Span is a live span handle returned by Tracer.Start.
	Span = obs.Span
	// SpanAttr is one key/value annotation on a span.
	SpanAttr = obs.Attr
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// DefaultMetrics returns the process-wide metrics registry.
func DefaultMetrics() *MetricsRegistry { return obs.Default() }

// NewTracer returns a span tracer keeping at most limit completed spans
// (limit <= 0 means the default of 4096).
func NewTracer(limit int) *Tracer { return obs.NewTracer(limit) }

// Span attribute constructors.
func SpanString(key, value string) SpanAttr { return obs.String(key, value) }
func SpanInt(key string, v int) SpanAttr    { return obs.Int(key, v) }

// RegisterRuntimeMetrics adds Go runtime gauges and counters (goroutines,
// heap, GC) to r.
func RegisterRuntimeMetrics(r *MetricsRegistry) { obs.RegisterRuntimeMetrics(r) }

// RegisterPoolMetrics adds the shared compute worker pool's occupancy and
// dispatch counters to r.
func RegisterPoolMetrics(r *MetricsRegistry) { obs.RegisterPoolMetrics(r) }

// RegisterDeviceMetrics adds per-device kernel/flop/byte/memory series for
// the given simulated devices to r.
func RegisterDeviceMetrics(r *MetricsRegistry, devs ...*Device) {
	obs.RegisterDeviceMetrics(r, devs...)
}
