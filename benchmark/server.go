package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"time"

	"itmap/benchmark/clock"
)

const (
	firstByteURL = "/v1/top?k=10"
	pollEvery    = 5 * time.Millisecond
	bootTimeout  = 60 * time.Second
)

// goBuild compiles pkg (relative to dir) into out. The benchmark always
// measures the program as the checkout's source builds it.
func goBuild(ctx context.Context, dir, out, pkg string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out, pkg)
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go build %s: %w", pkg, err)
	}
	return nil
}

// bootSpec is the itm-serve command line of one boot. Only flags the
// program documents are used: -addr -scale -seed -epochs -mesh-agents -wal.
type bootSpec struct {
	scale      string
	seed       int64
	epochs     int
	meshAgents int
	walDir     string
}

func (b bootSpec) args(addr string) []string {
	args := []string{"-addr", addr, "-scale", b.scale,
		"-seed", strconv.FormatInt(b.seed, 10), "-epochs", strconv.Itoa(b.epochs)}
	if b.meshAgents > 0 {
		args = append(args, "-mesh-agents", strconv.Itoa(b.meshAgents))
	}
	if b.walDir != "" {
		args = append(args, "-wal", b.walDir)
	}
	return args
}

// server is one running itm-serve process.
type server struct {
	cmd    *exec.Cmd
	base   string
	exited chan error
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// boot execs the binary and polls until the first 200 on firstByteURL is
// fully read. It returns the exec-to-first-byte time. On error the process
// is already gone.
func boot(ctx context.Context, bin string, spec bootSpec, logPath string) (*server, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logFile.Close() // the child keeps its own descriptor
	cmd := exec.Command(bin, spec.args(addr)...)
	cmd.Stderr = logFile
	start := clock.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	s := &server{cmd: cmd, base: "http://" + addr, exited: make(chan error, 1)}
	go func() { s.exited <- cmd.Wait() }()

	// A fresh connection per attempt: until the listener exists every
	// attempt is refused at once, and the first that is not refused is served.
	poll := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: bootTimeout}
	for {
		if _, err := get(ctx, poll, s.base+firstByteURL); err == nil {
			return s, clock.Now() - start, nil
		}
		select {
		case err := <-s.exited:
			return nil, 0, fmt.Errorf("itm-serve exited before its first byte (%v); see %s", err, logPath)
		case <-ctx.Done():
			s.kill()
			return nil, 0, ctx.Err()
		default:
		}
		if clock.Now()-start > bootTimeout {
			s.kill()
			return nil, 0, fmt.Errorf("no first byte within %v; see %s", bootTimeout, logPath)
		}
		clock.Sleep(pollEvery)
	}
}

// kill SIGKILLs the process — every boot ends in a crash, which is what the
// WAL workloads want and costs the others nothing — and waits for it.
func (s *server) kill() {
	_ = s.cmd.Process.Kill() // already exited is fine
	<-s.exited
}

func (s *server) pid() int { return s.cmd.Process.Pid }
