package edgesim

import (
	"math"
	"testing"
)

func TestComputeTimeScalesWithFlops(t *testing.T) {
	d := JetsonTX2CPU()
	t1 := d.ComputeTime(1e6, false)
	t2 := d.ComputeTime(2e6, false)
	if math.Abs(t2-2*t1) > 1e-12 {
		t.Fatalf("CPU time not linear: %v vs %v", t1, t2)
	}
}

func TestGPUHasLaunchFloor(t *testing.T) {
	d := JetsonTX2GPU()
	tiny := d.ComputeTime(1, true)
	if tiny < d.GPULaunchSec {
		t.Fatalf("GPU time %v below launch floor %v", tiny, d.GPULaunchSec)
	}
	// The floor makes small workloads GPU-insensitive: 10× flops ≪ 10× time.
	big := d.ComputeTime(10, true)
	if big/tiny > 1.01 {
		t.Fatal("launch cost not dominating tiny workloads")
	}
}

func TestGPUOnCPUOnlyDevicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for GPU on CPU-only device")
		}
	}()
	JetsonTX2CPU().ComputeTime(1e6, true)
}

func TestPaperBaselineCalibration(t *testing.T) {
	// The calibration anchors (DESIGN.md): the paper's baseline rows.
	mlp8Flops := 2.0 * 596480 // MLP-8 on 784-dim digits
	cpu := JetsonTX2CPU().ComputeTime(mlp8Flops, false)
	if cpu < 0.002 || cpu > 0.006 {
		t.Fatalf("Jetson CPU MLP-8 = %v s, want ≈ 3.4 ms", cpu)
	}
	gpu := JetsonTX2GPU().ComputeTime(mlp8Flops, true)
	if gpu < 0.0002 || gpu > 0.0006 {
		t.Fatalf("Jetson GPU MLP-8 = %v s, want ≈ 0.3 ms", gpu)
	}
	// RPi is several times slower than the Jetson CPU.
	rpi := RaspberryPi3B().ComputeTime(mlp8Flops, false)
	if rpi < 3*cpu {
		t.Fatalf("RPi (%v) not meaningfully slower than Jetson CPU (%v)", rpi, cpu)
	}
}

func TestDevicesOrderedBySpeed(t *testing.T) {
	flops := 1e7
	rpi := RaspberryPi3B().ComputeTime(flops, false)
	jcpu := JetsonTX2CPU().ComputeTime(flops, false)
	jgpu := JetsonTX2GPU().ComputeTime(flops, true)
	if !(jgpu < jcpu && jcpu < rpi) {
		t.Fatalf("speed ordering broken: gpu=%v cpu=%v rpi=%v", jgpu, jcpu, rpi)
	}
}

func TestUnicastComponents(t *testing.T) {
	n := Net{Link: WiFi(), Transport: Socket()}
	small := n.Unicast(10)
	big := n.Unicast(1 << 20)
	if big <= small {
		t.Fatal("bandwidth term missing")
	}
	if small < n.Transport.PerMessageSec+n.Link.LatencySec {
		t.Fatal("fixed costs missing")
	}
}

func TestTransportOverheadOrdering(t *testing.T) {
	// The paper's central communication claim: socket < gRPC < MPI per
	// message.
	bytes := 3200
	link := WiFi()
	sock := Net{Link: link, Transport: Socket()}.Unicast(bytes)
	grpc := Net{Link: link, Transport: GRPC()}.Unicast(bytes)
	mpi := Net{Link: link, Transport: MPI()}.Unicast(bytes)
	if !(sock < grpc && grpc < mpi) {
		t.Fatalf("transport ordering broken: socket=%v grpc=%v mpi=%v", sock, grpc, mpi)
	}
	if mpi < 5*sock {
		t.Fatalf("MPI (%v) not ≫ socket (%v): Table I's 30× gap unreachable", mpi, sock)
	}
}

func TestGatherScalesWithPeers(t *testing.T) {
	n := Net{Link: WiFi(), Transport: Socket()}
	if n.Gather(1000, 0) != 0 {
		t.Fatal("zero peers should cost nothing")
	}
	g1, g3 := n.Gather(100000, 1), n.Gather(100000, 3)
	if g3 <= g1 {
		t.Fatal("gather should grow with fan-in")
	}
	// But sub-linearly in fixed costs: one marshalling, shared latency.
	if g3 >= 3*g1 {
		t.Fatalf("gather from 3 peers (%v) should be < 3× one peer (%v): pipelined", g3, 3*g1)
	}
}

func TestLoopbackFasterThanWiFi(t *testing.T) {
	b := 5000
	lo := Net{Link: Loopback(), Transport: Socket()}.Unicast(b)
	wifi := Net{Link: WiFi(), Transport: Socket()}.Unicast(b)
	if lo >= wifi {
		t.Fatal("loopback not faster than WiFi")
	}
}

func TestEstimateUsageSmallerModelLowerFootprint(t *testing.T) {
	d := JetsonTX2CPU()
	big := EstimateUsage(d, UsageInputs{ModelBytes: 3 << 20, ActivationBytes: 1 << 16, ComputeSec: 0.003, CommSec: 0})
	small := EstimateUsage(d, UsageInputs{ModelBytes: 1 << 19, ActivationBytes: 1 << 14, ComputeSec: 0.0008, CommSec: 0.0015})
	if small.MemPct >= big.MemPct {
		t.Fatalf("smaller model memory %v ≥ bigger %v", small.MemPct, big.MemPct)
	}
	if small.CPUPct >= big.CPUPct {
		t.Fatalf("comm-waiting device CPU %v ≥ compute-bound %v", small.CPUPct, big.CPUPct)
	}
}

func TestEstimateUsageBusyWaitBurnsCPU(t *testing.T) {
	d := JetsonTX2CPU()
	in := UsageInputs{ModelBytes: 1 << 20, ComputeSec: 0.001, CommSec: 0.01}
	idle := EstimateUsage(d, in)
	in.BusyComm = true
	busy := EstimateUsage(d, in)
	if busy.CPUPct <= idle.CPUPct {
		t.Fatalf("busy-wait CPU %v not above blocking CPU %v", busy.CPUPct, idle.CPUPct)
	}
}

func TestEstimateUsageGPUSplitsWork(t *testing.T) {
	d := JetsonTX2GPU()
	u := EstimateUsage(d, UsageInputs{ModelBytes: 1 << 20, ComputeSec: 0.004, CommSec: 0.001, GPU: true})
	if u.GPUPct <= 0 {
		t.Fatal("GPU usage missing on GPU workload")
	}
	if u.CPUPct >= u.GPUPct {
		t.Fatalf("CPU %v should be below GPU %v for GPU-bound work", u.CPUPct, u.GPUPct)
	}
}

func TestEstimateUsageBounded(t *testing.T) {
	d := RaspberryPi3B()
	u := EstimateUsage(d, UsageInputs{ModelBytes: 64 << 30, ActivationBytes: 1 << 30, ComputeSec: 10, CommSec: 0})
	if u.MemPct > 100 || u.CPUPct > 100 || u.GPUPct > 100 {
		t.Fatalf("usage exceeds 100%%: %+v", u)
	}
	idle := EstimateUsage(d, UsageInputs{})
	if idle.CPUPct <= 0 || idle.MemPct <= 0 {
		t.Fatalf("idle baselines missing: %+v", idle)
	}
}
