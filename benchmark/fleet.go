package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The fleet is driven through the operator surface only: cmd/ flags, the
// /predict JSON and the admin endpoints. Every flag not listed here keeps
// its default; addresses are deployment settings and -admin only makes
// /healthz and /metrics reachable.

// env is what a checkout needs before any fleet starts: the three binaries
// and the two team bundles, all under benchmark/out/.
type env struct {
	out     string // benchmark/out
	bin     string // out/bin
	bundles map[string]string
}

var bundleArgs = map[string][]string{
	"digits":  {"-dataset", "digits", "-k", "4", "-n", "400", "-epochs", "2", "-seed", "42"},
	"objects": {"-dataset", "objects", "-k", "2", "-n", "20", "-epochs", "0", "-seed", "42"},
}

// prepare builds teamnet-train, teamnet-node and teamnet-serve from the
// checkout's source and trains the bundles. Nothing here is inside a timed
// number. Bundles are kept between runs, keyed by the hash of the trainer
// that made them, so a source change retrains.
func prepare(ctx context.Context, root string) (*env, error) {
	e := &env{out: filepath.Join(root, "benchmark", "out"), bundles: map[string]string{}}
	e.bin = filepath.Join(e.out, "bin")
	if err := os.MkdirAll(e.bin, 0o755); err != nil {
		return nil, err
	}
	// No VCS stamp: the driver's checkout is not a repository, and the
	// trainer's hash below should follow the source, not the commit.
	build := exec.CommandContext(ctx, "go", "build", "-buildvcs=false", "-o", e.bin+string(filepath.Separator),
		"./cmd/teamnet-train", "./cmd/teamnet-node", "./cmd/teamnet-serve")
	build.Dir = root
	if msg, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build: %w\n%s", err, msg)
	}
	trainer, err := os.ReadFile(filepath.Join(e.bin, "teamnet-train"))
	if err != nil {
		return nil, err
	}
	tag := fmt.Sprintf("%x", sha256.Sum256(trainer))[:12]
	for name, args := range bundleArgs {
		path := filepath.Join(e.out, fmt.Sprintf("%s-%s.tnet", name, tag))
		e.bundles[name] = path
		if _, err := os.Stat(path); err == nil {
			continue
		}
		old, _ := filepath.Glob(filepath.Join(e.out, name+"-*.tnet"))
		for _, p := range old {
			os.Remove(p)
		}
		tmp := path + ".tmp"
		train := exec.CommandContext(ctx, filepath.Join(e.bin, "teamnet-train"), append(args, "-out", tmp)...)
		if msg, err := train.CombinedOutput(); err != nil {
			return nil, fmt.Errorf("teamnet-train %s: %w\n%s", name, err, msg)
		}
		if err := os.Rename(tmp, path); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Process roles. On every workload but edge_single the gateway is also the
// master, and is reported under roleGateway.
const (
	roleGateway = "gateway"
	roleMaster  = "master"
	roleWorker  = "workers"
)

type proc struct {
	role    string
	admin   string // host:port of /healthz and /metrics
	cmd     *exec.Cmd
	logPath string
	log     *os.File
	exited  chan struct{} // closed once cmd.Wait has returned
	waitErr error
}

type fleet struct {
	procs   []*proc
	predict string // URL of the front gateway's /predict
	logDir  string
	setup   time.Duration // first spawn → first /predict 200
	httpc   *http.Client  // control-plane client: readiness and scrapes
}

// freePorts finds n unused loopback ports below the kernel's ephemeral range
// (32768 and up by default). A port the kernel hands out itself could be
// taken, between this probe and the child's bind, by a child's own :0
// listener (the chaos proxy's worker) or by an outgoing connection.
func freePorts(n int) ([]string, error) {
	var addrs []string
	port := 15000 + rand.Intn(10000)
	for tries := 0; len(addrs) < n; tries, port = tries+1, port+1 {
		if tries == 1000 {
			return nil, errors.New("no free loopback ports between 15000 and 26000")
		}
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		l, err := net.Listen("tcp", addr)
		if err != nil {
			continue
		}
		l.Close()
		addrs = append(addrs, addr)
	}
	return addrs, nil
}

func (f *fleet) spawn(e *env, role, binary string, admin string, args ...string) error {
	logPath := filepath.Join(f.logDir, fmt.Sprintf("%d-%s.log", len(f.procs), binary))
	log, err := os.Create(logPath)
	if err != nil {
		return err
	}
	cmd := exec.Command(filepath.Join(e.bin, binary), append(args, "-admin", admin)...)
	cmd.Stdout, cmd.Stderr = log, log
	// Own process group: a stray grandchild dies with the group kill, and a
	// terminal's ^C reaches the driver alone, which then stops the fleet.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		log.Close()
		return fmt.Errorf("start %s: %w", binary, err)
	}
	p := &proc{role: role, admin: admin, cmd: cmd, logPath: logPath, log: log, exited: make(chan struct{})}
	go func() {
		p.waitErr = cmd.Wait()
		close(p.exited)
	}()
	f.procs = append(f.procs, p)
	return nil
}

// awaitHealthy polls the newest processes' /healthz until each answers 200.
func (f *fleet) awaitHealthy(ctx context.Context, procs []*proc) error {
	for _, p := range procs {
		err := f.poll(ctx, p, func() (bool, error) {
			resp, err := f.httpc.Get("http://" + p.admin + "/healthz")
			if err != nil {
				return false, nil
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return resp.StatusCode == http.StatusOK, nil
		})
		if err != nil {
			return fmt.Errorf("%s /healthz: %w", filepath.Base(p.logPath), err)
		}
	}
	return nil
}

// poll retries probe every 2 ms until it reports done, the process behind it
// exits, or set-up has taken 20 s.
func (f *fleet) poll(ctx context.Context, p *proc, probe func() (bool, error)) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		done, err := probe()
		if err != nil || done {
			return err
		}
		select {
		case <-p.exited:
			log, _ := os.ReadFile(p.logPath)
			return fmt.Errorf("exited during set-up: %v\n%s", p.waitErr, log)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return errors.New("not ready after 20 s")
		}
	}
}

// startFleet brings up wl's processes on free loopback ports and returns
// once a /predict of the workload's own shape has come back 200 through the
// whole chain. readyBody is that request; setup is timed from the first
// spawn to its answer.
func startFleet(ctx context.Context, e *env, wl workload, label string, readyBody []byte) (_ *fleet, err error) {
	f := &fleet{
		logDir: filepath.Join(e.out, "logs", label),
		httpc:  &http.Client{Timeout: 5 * time.Second},
	}
	if err := os.MkdirAll(f.logDir, 0o755); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			err = errors.Join(err, f.stop(true))
		}
	}()
	// Per node: listen, admin. Master: http, admin, fabric. Front: http, admin.
	ports, err := freePorts(2*wl.nodes + 5)
	if err != nil {
		return nil, err
	}
	take := func() string { p := ports[0]; ports = ports[1:]; return p }
	bundle := e.bundles[wl.dataset]

	start := time.Now()
	var peers []string
	for i := 1; i <= wl.nodes; i++ {
		listen := take()
		args := []string{"-team", bundle, "-expert", strconv.Itoa(i), "-id", strconv.Itoa(i), "-listen", listen}
		if wl.fabric {
			args = append(args, "-chaos", "latency:2ms")
		}
		if err := f.spawn(e, roleWorker, "teamnet-node", take(), args...); err != nil {
			return nil, err
		}
		peers = append(peers, listen)
	}
	// teamnet-serve connects to its peers at start-up and fails if one is
	// not listening yet.
	if err := f.awaitHealthy(ctx, f.procs); err != nil {
		return nil, err
	}
	front := take()
	masterArgs := []string{"-team", bundle, "-local", "0", "-peers", strings.Join(peers, ","), "-listen", front}
	if wl.fabric {
		fabric := take()
		masterArgs = append(masterArgs, "-fabric-listen", fabric)
		if err := f.spawn(e, roleMaster, "teamnet-serve", take(), masterArgs...); err != nil {
			return nil, err
		}
		if err := f.awaitHealthy(ctx, f.procs[len(f.procs)-1:]); err != nil {
			return nil, err
		}
		front = take()
		err = f.spawn(e, roleGateway, "teamnet-serve", take(),
			"-team", bundle, "-local", "-1", "-masters", fabric, "-listen", front)
	} else {
		err = f.spawn(e, roleGateway, "teamnet-serve", take(), masterArgs...)
	}
	if err != nil {
		return nil, err
	}
	f.predict = "http://" + front + "/predict"
	gateway := f.procs[len(f.procs)-1]
	err = f.poll(ctx, gateway, func() (bool, error) {
		resp, err := f.httpc.Post(f.predict, "application/json", bytes.NewReader(readyBody))
		if err != nil {
			return false, nil // not listening yet
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusOK:
			return true, nil
		case resp.StatusCode >= 500:
			return false, nil // the master behind the front is still coming up
		default:
			return false, fmt.Errorf("readiness /predict: HTTP %d: %s", resp.StatusCode, msg)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("set-up of %s: %w", wl.name, err)
	}
	f.setup = time.Since(start)
	return f, nil
}

// stop ends every process (SIGTERM, then SIGKILL of the group after 5 s)
// and asserts the fleet's hygiene: no child survives, each exited 0 after
// its graceful shutdown, and no log holds a Go crash. Logs are kept only
// when the round failed or the fleet was unhealthy.
func (f *fleet) stop(failed bool) error {
	f.httpc.CloseIdleConnections()
	for _, p := range f.procs {
		p.cmd.Process.Signal(syscall.SIGTERM)
	}
	var errs []error
	grace := time.After(5 * time.Second)
	for _, p := range f.procs {
		name := filepath.Base(p.logPath)
		select {
		case <-p.exited:
			if p.waitErr != nil {
				errs = append(errs, fmt.Errorf("%s: %w", name, p.waitErr))
			}
		case <-grace:
			errs = append(errs, fmt.Errorf("%s: still running 5 s after SIGTERM, killed", name))
		}
		// The leader is reaped or about to be; this only finds stragglers.
		syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
		<-p.exited
		if syscall.Kill(-p.cmd.Process.Pid, 0) == nil {
			errs = append(errs, fmt.Errorf("%s: process group %d survived the kill", name, p.cmd.Process.Pid))
		}
		p.log.Close()
		if log, err := os.ReadFile(p.logPath); err == nil {
			for _, mark := range []string{"panic:", "fatal error:", "DATA RACE"} {
				if bytes.Contains(log, []byte(mark)) {
					errs = append(errs, fmt.Errorf("%s: crash log (%q), see %s", name, mark, p.logPath))
				}
			}
		}
	}
	if !failed && len(errs) == 0 {
		os.RemoveAll(f.logDir)
	}
	return errors.Join(errs...)
}

// cpuSeconds returns each role's time on a CPU so far: the scheduler's own
// run-time clock, in nanoseconds, summed over every thread of every process
// (first field of /proc/<pid>/task/<tid>/schedstat). utime+stime of
// /proc/<pid>/stat are sampled at the kernel's tick and reported in 10 ms
// units, which is coarse for a one-second segment of a fleet that is mostly
// asleep; over a whole window the two agreed within 0.5 % here. Go keeps its
// threads, so none exits (and takes its time with it) inside a window.
func (f *fleet) cpuSeconds() (map[string]float64, error) {
	out := map[string]float64{}
	for _, p := range f.procs {
		tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", p.cmd.Process.Pid))
		if err != nil || len(tasks) == 0 {
			return nil, fmt.Errorf("no /proc schedstat for pid %d", p.cmd.Process.Pid)
		}
		for _, path := range tasks {
			raw, err := os.ReadFile(path)
			if err != nil {
				continue // the thread ended between the listing and the read
			}
			fields := strings.Fields(string(raw))
			if len(fields) < 1 {
				return nil, fmt.Errorf("empty %s", path)
			}
			ns, err := strconv.ParseInt(fields[0], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			out[p.role] += float64(ns) / 1e9
		}
	}
	return out, nil
}

// rssPeakMB sums VmHWM over the fleet.
func (f *fleet) rssPeakMB() float64 {
	kb := 0.0
	for _, p := range f.procs {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
		if err != nil {
			continue
		}
		sc := bufio.NewScanner(bytes.NewReader(raw))
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				v, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
				kb += v
			}
		}
	}
	return kb / 1024
}

// series is one scrape of the admin /metrics text, summed per role: series
// name (labels stripped, so per-peer families add up) → value.
type series map[string]float64

func (f *fleet) scrape() (map[string]series, error) {
	out := map[string]series{}
	for _, p := range f.procs {
		resp, err := f.httpc.Get("http://" + p.admin + "/metrics")
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", p.role, err)
		}
		s := out[p.role]
		if s == nil {
			s = series{}
			out[p.role] = s
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			i := strings.LastIndexByte(line, ' ')
			if i < 0 || strings.Contains(line, "_bucket{") {
				continue
			}
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				continue
			}
			name := line[:i]
			if j := strings.IndexByte(name, '{'); j >= 0 {
				name = name[:j]
			}
			s[name] += v
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("scrape %s: %w", p.role, err)
		}
	}
	return out, nil
}

// minus returns after − before, series by series.
func (after series) minus(before series) series {
	d := series{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// meanUS is a latency histogram's mean over the scrape interval, in µs.
func (s series) meanUS(hist string) float64 {
	n := s["teamnet_"+hist+"_seconds_count"]
	if n == 0 {
		return 0
	}
	return s["teamnet_"+hist+"_seconds_sum"] / n * 1e6
}
