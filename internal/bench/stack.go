package bench

import (
	"time"

	"github.com/teamnet/teamnet/internal/chaos"
	"github.com/teamnet/teamnet/internal/cluster"
	"github.com/teamnet/teamnet/internal/nn"
	"github.com/teamnet/teamnet/internal/serve"
	"github.com/teamnet/teamnet/internal/tensor"
	"github.com/teamnet/teamnet/internal/transport"
)

// The stack every live harness measures: a real master and real
// snapshot-serving workers over real TCP, every worker link through its own
// chaos proxy. The proxy's latency injector is the edge link — bare
// loopback has none of the physics the serving stack exists for (TeamNet
// deploys over edge WiFi, paper §V, where every round trip costs
// milliseconds) — and the handle the fault scripts stall, reset and heal.

// benchSpec is the expert every live harness serves: one untrained
// paper-shaped MLP. Weights are irrelevant to throughput; the FLOPs are real.
var benchSpec = nn.Spec{Kind: "mlp", MLP: &nn.MLPSpec{Label: "tp", Input: 64, Width: 128, Layers: 3, Classes: 10}}

// The gateway shape every harness runs: dispatch workers and admission lane.
const (
	gatewayWorkers = 4
	gatewayQueue   = 512
)

// gatewayConfig is the common part of every harness's gateway.
func gatewayConfig(maxBatch int) serve.Config {
	return serve.Config{MaxBatch: maxBatch, QueueSize: gatewayQueue, Workers: gatewayWorkers}
}

// stackSpec sizes one master + workers stack.
type stackSpec struct {
	local    *nn.Network   // the master's own expert; nil = peer-only master
	workers  int           // worker nodes, each behind its own proxy
	seed     int64         // worker w serves benchSpec built from seed+w
	idBase   int           // worker w is node idBase+w+1
	netDelay time.Duration // one-way delay on every link; <= 0 = none injected
	defend   time.Duration // request deadline to defend (see defend); 0 = undefended
}

// stack is a built master with its workers (direct addresses kept for model
// pushes) and their link proxies.
type stack struct {
	master      *cluster.Master
	workers     []*cluster.Node
	workerAddrs []string
	proxies     []*chaos.Proxy
	netDelay    time.Duration
}

func newStack(spec stackSpec) (*stack, error) {
	s := &stack{master: cluster.NewMaster(spec.local, benchSpec.MLP.Classes), netDelay: spec.netDelay}
	if spec.defend > 0 {
		defend(s.master, spec.defend)
	} else {
		s.master.SetTimeout(10 * time.Second)
	}
	for w := 0; w < spec.workers; w++ {
		if err := s.addWorker(spec.idBase+w+1, spec.seed+int64(w)); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

func (s *stack) addWorker(id int, seed int64) error {
	expert, err := benchSpec.Build(tensor.NewRNG(seed))
	if err != nil {
		return err
	}
	worker := cluster.NewWorker(expert, id)
	addr, err := worker.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	s.workers = append(s.workers, worker)
	s.workerAddrs = append(s.workerAddrs, addr)
	// The delay is charged per forwarded chunk, so back-to-back pipelined
	// frames share one delay while serial round trips each pay their own —
	// the same physics as a real high-RTT link.
	proxy := chaos.New(addr, s.linkPlan()...)
	paddr, err := proxy.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	s.proxies = append(s.proxies, proxy)
	return s.master.Connect(paddr)
}

// linkPlan is a link's healthy plan (the injected delay alone) plus faults.
func (s *stack) linkPlan(faults ...chaos.Fault) []chaos.Fault {
	if s.netDelay > 0 {
		return append([]chaos.Fault{{Mode: chaos.Latency, Delay: s.netDelay}}, faults...)
	}
	return faults
}

// setLink replaces worker w's link plan: healthy with no faults given.
func (s *stack) setLink(w int, faults ...chaos.Fault) {
	s.proxies[w].SetPlan(s.linkPlan(faults...)...)
}

// warm sends n queries straight through the master, cycling rows:
// connections dialed, pools touched, the rtt histograms hedging reads seeded.
func (s *stack) warm(rows []*tensor.Tensor, n int) error {
	for i := 0; i < n; i++ {
		if _, _, err := s.master.Infer(rows[i%len(rows)]); err != nil {
			return err
		}
	}
	return nil
}

func (s *stack) close() {
	s.master.Close()
	for _, p := range s.proxies {
		p.Close()
	}
	for _, w := range s.workers {
		w.Close()
	}
}

// defend turns on the SLO-defense layer the soak and the fleet bench drill:
// supervisor with a fast breaker, hedging and the shared retry budget.
func defend(m *cluster.Master, deadline time.Duration) {
	// The per-peer timeout must undercut the quorum soft deadline (~80% of
	// the request deadline): a stalled peer has to FAIL its round trip — and
	// feed the breaker toward quarantine — before the partial-answer path
	// cancels it as a mere caller abort. At half the deadline, stalls are
	// classified as peer faults within a few batches and the fleet stops
	// paying the soft wait; at the full deadline they never would be.
	m.SetTimeout(deadline / 2)
	m.SetSupervisor(cluster.SupervisorConfig{
		MaxRetries:       1,
		FailureThreshold: 3,
		DialTimeout:      time.Second,
		RetryBackoff:     &transport.Backoff{Base: 5 * time.Millisecond, Max: 25 * time.Millisecond},
		ProbeBackoff:     &transport.Backoff{Base: 100 * time.Millisecond, Max: 500 * time.Millisecond},
	})
	m.SetHedge(true)
	m.SetRetryBudget(cluster.NewRetryBudget(0))
}

// randRows draws n single-row queries of the expert's input width.
func randRows(rng *tensor.RNG, n int) []*tensor.Tensor {
	rows := make([]*tensor.Tensor, n)
	for i := range rows {
		rows[i] = rng.Randn(1, benchSpec.MLP.Input)
	}
	return rows
}

// configMs echoes a configured delay or deadline into a report: milliseconds,
// a negative ("none") delay as 0.
func configMs(d time.Duration) float64 { return ms(max(d, 0)) }
