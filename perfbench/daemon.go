package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one mvkvd subprocess.
type daemon struct {
	cmd   *exec.Cmd
	addr  string
	start time.Time
	mu    sync.Mutex
	log   []string
	done  chan struct{} // closed once the log reader has drained stderr
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// startDaemon execs mvkvd with args on an ephemeral loopback port and
// waits until it listens.
func startDaemon(bin string, args []string) (*daemon, error) {
	d := &daemon{done: make(chan struct{})}
	d.cmd = exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	d.start = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start mvkvd: %w", err)
	}
	addrc := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.log = append(d.log, line)
			d.mu.Unlock()
			if m := listenRE.FindStringSubmatch(line); m != nil {
				select {
				case addrc <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case d.addr = <-addrc:
		return d, nil
	case <-d.done:
	case <-time.After(60 * time.Second):
	}
	d.kill()
	return nil, fmt.Errorf("mvkvd did not come up; log:\n%s", d.logText())
}

func (d *daemon) logText() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.log, "\n")
}

// stop drains the daemon gracefully (SIGTERM runs the same ordered drain
// as SHUTDOWN) and waits for it to exit, killing it if the drain
// overruns.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	exited := make(chan error, 1)
	go func() { <-d.done; exited <- d.cmd.Wait() }()
	select {
	case err := <-exited:
		return err
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-exited
		return fmt.Errorf("mvkvd drain overran; killed")
	}
}

func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.done
	d.cmd.Wait()
}

// peakRSSMB reads the daemon's resident-set high-water mark (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(b), "\n") {
		if f := strings.Fields(l); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// preload writes every key's preload value over conns connections,
// pipelining MSETs of 128 pairs, and checks every reply.
func preload(addr string, keys int) error {
	const pairs, depth = 128, 16
	var wg sync.WaitGroup
	errs := make([]error, conns)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = preloadPart(addr, keys, c, pairs, depth)
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func preloadPart(addr string, keys, part, pairs, depth int) error {
	cl, err := dial(addr)
	if err != nil {
		return err
	}
	defer cl.close()
	var r reply
	args := make([]string, 0, 1+2*pairs)
	next := part * pairs
	for next < keys {
		sent := 0
		for ; sent < depth && next < keys; sent++ {
			args = append(args[:0], "MSET")
			for i := next; i < next+pairs && i < keys; i++ {
				args = append(args, keyName(i), value(i, "p", 0))
			}
			cl.send(args...)
			next += conns * pairs
		}
		if err := cl.flush(); err != nil {
			return err
		}
		for i := 0; i < sent; i++ {
			if err := cl.read(&r); err != nil {
				return err
			}
			if !r.isOK() {
				return fmt.Errorf("preload MSET: %s", &r)
			}
		}
	}
	return nil
}

// cpuTimes reads the aggregate "cpu" line of /proc/stat: steal ticks and
// all ticks.
func cpuTimes() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// readSteal and stealSince report the share of host CPU time the
// hypervisor stole over an interval (0 where /proc/stat has no steal).
func readSteal() [2]float64 {
	s, t := cpuTimes()
	return [2]float64{s, t}
}

func stealSince(start [2]float64) float64 {
	s, t := cpuTimes()
	if t <= start[1] {
		return 0
	}
	return (s - start[0]) / (t - start[1])
}
