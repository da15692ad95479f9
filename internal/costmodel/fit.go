package costmodel

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/ag"
	"repro/internal/graph"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// Sample is one sweep measurement: the features of a graph (or batch union)
// and the forward latency the device reported for it.
type Sample struct {
	F       Features
	Seconds float64
}

// FitOptions configures Fit.
type FitOptions struct {
	// Steps is the number of full-batch Adam iterations (default 2000).
	Steps int
	// LR is the Adam learning rate over standardized features (default 0.05).
	LR float64
}

func (o *FitOptions) defaults() {
	if o.Steps <= 0 {
		o.Steps = 2000
	}
	if o.LR <= 0 {
		o.LR = 0.05
	}
}

// Predictor is a fitted per-model cost predictor: a linear regression over
// standardized graph metrics. All fields are exported so the fitted model
// round-trips through JSON (WriteJSON / ReadJSON) byte-deterministically.
type Predictor struct {
	// Model and Framework identify what the predictor was fit for; admission
	// control refuses to arm when they disagree with the served model.
	Model     string `json:"model"`
	Framework string `json:"framework"`

	// FeatMean/FeatStd standardize raw feature vectors, FeatureNames order.
	FeatMean []float64 `json:"feat_mean"`
	FeatStd  []float64 `json:"feat_std"`
	// Coef and Bias act in standardized space.
	Coef []float64 `json:"coef"`
	Bias float64   `json:"bias"`
	// TargetMean/TargetStd de-standardize the regressed latency (seconds).
	TargetMean float64 `json:"target_mean"`
	TargetStd  float64 `json:"target_std"`
}

// Fit regresses latency against features with the training stack itself —
// ag parameters, MSE loss through the autograd graph, optim.Adam — rather
// than a closed-form solver, so the cost model exercises the same code path
// the paper's training measurements run on. Features and target are
// z-standardized; parameters start at zero, so the fit is deterministic:
// same samples, same options, bit-identical coefficients.
func Fit(samples []Sample, opt FitOptions) (*Predictor, error) {
	opt.defaults()
	n := len(samples)
	if n < NumFeatures+1 {
		return nil, fmt.Errorf("costmodel: %d samples cannot constrain %d features", n, NumFeatures)
	}

	p := &Predictor{
		FeatMean: make([]float64, NumFeatures),
		FeatStd:  make([]float64, NumFeatures),
	}
	x := tensor.New(n, NumFeatures)
	for i, s := range samples {
		copy(x.Row(i), s.F.Vector())
		p.TargetMean += s.Seconds
	}
	p.TargetMean /= float64(n)
	for _, s := range samples {
		d := s.Seconds - p.TargetMean
		p.TargetStd += float64(d * d)
	}
	p.TargetStd = math.Sqrt(p.TargetStd / float64(n))
	if p.TargetStd <= 0 {
		// A constant target needs no regression; Predict returns the mean.
		p.TargetStd = 1
	}
	for j := 0; j < NumFeatures; j++ {
		var mean, sq float64
		for i := 0; i < n; i++ {
			mean += x.At(i, j)
		}
		mean /= float64(n)
		for i := 0; i < n; i++ {
			d := x.At(i, j) - mean
			sq += float64(d * d)
		}
		std := math.Sqrt(sq / float64(n))
		if std <= 0 {
			std = 1 // constant feature: standardizes to zero, coefficient stays zero
		}
		p.FeatMean[j], p.FeatStd[j] = mean, std
		for i := 0; i < n; i++ {
			x.Set(i, j, (x.At(i, j)-mean)/std)
		}
	}
	y := tensor.New(n, 1)
	for i, s := range samples {
		y.Set(i, 0, (s.Seconds-p.TargetMean)/p.TargetStd)
	}

	w := ag.NewParameter("costmodel.w", tensor.New(NumFeatures, 1))
	b := ag.NewParameter("costmodel.b", tensor.New(1, 1))
	adam := optim.NewAdam([]*ag.Parameter{w, b}, opt.LR)
	for step := 0; step < opt.Steps; step++ {
		g := ag.New(nil)
		pred := g.AddBias(g.MatMul(g.Input(x), g.Param(w)), g.Param(b))
		loss := g.MeanAll(g.Square(g.Sub(pred, g.Input(y))))
		g.Backward(loss)
		adam.Step()
		adam.ZeroGrad()
		g.Finish()
	}

	p.Coef = append([]float64(nil), w.Value.Data...)
	p.Bias = b.Value.Data[0]
	return p, nil
}

// PredictFeatures returns the predicted forward latency for one feature
// vector. Predictions are clamped at zero: the linear model may extrapolate
// below it for degenerate inputs, and a negative latency budget is
// meaningless downstream.
func (p *Predictor) PredictFeatures(f Features) time.Duration {
	v := f.Vector()
	yhat := p.Bias
	for j, c := range p.Coef {
		yhat += c * (v[j] - p.FeatMean[j]) / p.FeatStd[j]
	}
	secs := float64(yhat*p.TargetStd) + p.TargetMean
	if secs < 0 {
		secs = 0
	}
	return time.Duration(secs * float64(time.Second))
}

// PredictBatch returns the predicted forward latency of the coalesced batch
// formed by graphs — the serve.LatencyPredictor contract admission control
// calls under the coalescer.
func (p *Predictor) PredictBatch(graphs []*graph.Graph) time.Duration {
	return p.PredictFeatures(ExtractBatch(graphs))
}

// RSquared returns the coefficient of determination of p over samples in raw
// (seconds) space: 1 - SS_res/SS_tot. 1 is a perfect fit; 0 is no better
// than predicting the mean.
func RSquared(p *Predictor, samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	var mean float64
	for _, s := range samples {
		mean += s.Seconds
	}
	mean /= float64(len(samples))
	var ssRes, ssTot float64
	for _, s := range samples {
		pred := p.PredictFeatures(s.F).Seconds()
		ssRes += float64((s.Seconds - pred) * (s.Seconds - pred))
		ssTot += float64((s.Seconds - mean) * (s.Seconds - mean))
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return 0
	}
	return 1 - ssRes/ssTot
}

// WriteJSON renders the predictor as deterministic JSON (struct field order,
// shortest round-trip floats) — the on-disk format gnnpredict emits and
// gnnserve -costmodel loads.
func (p *Predictor) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// ReadJSON loads a predictor written by WriteJSON and validates its shape.
func ReadJSON(r io.Reader) (*Predictor, error) {
	var p Predictor
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("costmodel: decode predictor: %w", err)
	}
	if len(p.Coef) != NumFeatures || len(p.FeatMean) != NumFeatures || len(p.FeatStd) != NumFeatures {
		return nil, fmt.Errorf("costmodel: predictor has %d/%d/%d coef/mean/std values, want %d",
			len(p.Coef), len(p.FeatMean), len(p.FeatStd), NumFeatures)
	}
	for j, s := range p.FeatStd {
		if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
			return nil, fmt.Errorf("costmodel: predictor feature %q has non-positive std %v", FeatureNames[j], s)
		}
	}
	if p.TargetStd <= 0 || math.IsNaN(p.TargetStd) || math.IsInf(p.TargetStd, 0) {
		return nil, fmt.Errorf("costmodel: predictor has non-positive target std %v", p.TargetStd)
	}
	return &p, nil
}
