package routersim_test

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"routersim"
	"routersim/internal/harness"
	"routersim/internal/rng"
)

func TestFacadeTable1(t *testing.T) {
	rows := routersim.Table1()
	if len(rows) != 9 {
		t.Fatalf("%d rows, want 9", len(rows))
	}
	for _, r := range rows {
		if math.Abs(r.Model-r.Paper) > 0.1 {
			t.Errorf("%s: model %.2f vs paper %.1f", r.Module, r.Model, r.Paper)
		}
	}
}

func TestFacadeDesignPipeline(t *testing.T) {
	params := routersim.PaperDelayParams()
	params.Range = routersim.RangeVC
	cases := []struct {
		fc   routersim.FlowControl
		want int
	}{
		{routersim.WormholeFlow, 3},
		{routersim.VirtualChannelFlow, 4},
		{routersim.SpeculativeVCFlow, 3},
	}
	for _, c := range cases {
		pipe, err := routersim.DesignPipeline(c.fc, params)
		if err != nil {
			t.Fatal(err)
		}
		if pipe.Depth() != c.want {
			t.Errorf("%v: %d stages, want %d", c.fc, pipe.Depth(), c.want)
		}
	}
	if _, err := routersim.DesignPipeline(routersim.WormholeFlow, routersim.DelayParams{}); err == nil {
		t.Error("zero params should fail validation")
	}
}

func TestFacadeSimulate(t *testing.T) {
	cfg := routersim.DefaultSimConfig(routersim.SpecVCRouter)
	cfg.Load = 0.2
	cfg.WarmupCycles = 1500
	cfg.MeasurePackets = 800
	res, err := routersim.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Saturated || res.Latency.Packets != 800 {
		t.Fatalf("unexpected result: %+v", res)
	}
	if res.Latency.MeanLatency < 25 || res.Latency.MeanLatency > 40 {
		t.Errorf("latency %.1f out of plausible range", res.Latency.MeanLatency)
	}

	cfg.Load = -1
	if _, err := routersim.Simulate(cfg); err == nil {
		t.Error("negative load should error")
	}
}

func TestFacadeSweepAndSaturation(t *testing.T) {
	cfg := routersim.DefaultSimConfig(routersim.WormholeRouter)
	cfg.WarmupCycles = 1500
	cfg.MeasurePackets = 800
	pts, err := routersim.Sweep(cfg, []float64{0.2, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("%d points", len(pts))
	}
	if sat := routersim.SaturationLoad(pts); sat != 0.3 {
		t.Errorf("saturation %.2f, want 0.3 (both points below the knee)", sat)
	}
	// One curve engine: point i is Simulate at the derived seed
	// rng.Derive(seed, i), and the figures' harness.Curve point.
	for i, pt := range pts {
		one := cfg
		one.Seed = rng.Derive(cfg.Seed, uint64(i))
		one.Load = pt.Load
		res, err := routersim.Simulate(one)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, pt.Result) {
			t.Errorf("point %d: Sweep %+v, Simulate at the derived seed %+v", i, pt.Result, res)
		}
	}
	curve, err := harness.Curve(cfg.Scenario, []float64{0.2, 0.3}, harness.Options{
		Seed:     cfg.Seed,
		Protocol: harness.Protocol{Warmup: cfg.WarmupCycles, Packets: cfg.MeasurePackets},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(curve, pts) {
		t.Errorf("Sweep %+v differs from harness.Curve %+v", pts, curve)
	}
	if _, err := routersim.Sweep(cfg, []float64{0.2, 0.2}); err == nil {
		t.Error("a duplicate load should be an error")
	}
}

func TestFacadeReproduceUnknown(t *testing.T) {
	if _, err := routersim.Reproduce("figure99", routersim.QuickProtocol()); err == nil {
		t.Error("unknown figure should error")
	}
	if _, err := routersim.Reproduce("figure16", routersim.QuickProtocol()); err == nil {
		t.Error("figure16 is a probe, not a sweep; should error")
	}
}

func TestFacadeReproduceFigure18(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	pr := routersim.QuickProtocol()
	pr.Warmup = 2000
	pr.Packets = 1200
	pr.Loads = []float64{0.3, 0.45, 0.55, 0.65}
	fig, err := routersim.Reproduce("figure18", pr)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := routersim.WriteFigure(&buf, fig); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "credit propagation") {
		t.Error("rendering missing curve names")
	}
	var csv strings.Builder
	if err := routersim.WriteFigureCSV(&csv, fig); err != nil {
		t.Fatal(err)
	}
	if len(strings.Split(strings.TrimSpace(csv.String()), "\n")) != 1+2*len(pr.Loads) {
		t.Errorf("csv rows wrong:\n%s", csv.String())
	}
}

func TestFacadeTurnaroundProbe(t *testing.T) {
	cfg := routersim.DefaultSimConfig(routersim.VCRouter)
	cfg.Load = 0.9
	cfg.WarmupCycles = 500
	cfg.MeasurePackets = 500
	res, err := routersim.SimulateWithTurnaroundProbe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MinTurnaround != 5 {
		t.Errorf("VC router turnaround %d, want 5", res.MinTurnaround)
	}
}

func TestUniformTrafficPattern(t *testing.T) {
	if routersim.UniformTraffic().Name() != "uniform" {
		t.Error("uniform pattern misnamed")
	}
}
