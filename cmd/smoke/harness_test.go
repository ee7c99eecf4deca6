package main

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/daemon"
)

// fakeEnv selects the fake-daemon role when the test binary re-execs
// itself: "serve" boots a daemon through internal/daemon that answers
// every request with its pid, "exit" dies before printing a banner.
const fakeEnv = "SMOKE_HARNESS_FAKE_DAEMON"

func TestMain(m *testing.M) {
	switch os.Getenv(fakeEnv) {
	case "":
		os.Exit(m.Run())
	case "serve":
		addr := "127.0.0.1:0"
		if len(os.Args) == 3 && os.Args[1] == "-addr" {
			addr = os.Args[2]
		}
		d, err := daemon.Listen("fake", addr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fake:", err)
			os.Exit(1)
		}
		d.Announce("fake: serving pid %d", os.Getpid())
		err = d.Serve(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprint(w, os.Getpid())
		}), daemon.Options{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "fake:", err)
			os.Exit(1)
		}
		fmt.Println("fake: drained and stopped")
		os.Exit(0)
	case "exit":
		fmt.Println("fake: giving up before listening")
		os.Exit(3)
	}
}

// fake runs scenario with the harness's binary directory pointed at
// this test binary, re-exec'd as a fake daemon in the given role.
func fake(t *testing.T, role string, scenario func(self string)) error {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv(fakeEnv, role)
	return run("harness-test", filepath.Dir(exe), func() { scenario(filepath.Base(exe)) })
}

func TestBootParsesTheBannerAndStopDrains(t *testing.T) {
	var out string
	err := fake(t, "serve", func(self string) {
		p := boot(self)
		pid := fmt.Sprint(p.cmd.Process.Pid)
		if body := get(p.url() + "/"); body != pid {
			fatalf("GET %s = %q, want the child's pid %s", p.url(), body, pid)
		}
		check(p.stop())
		out = p.output()
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "fake: serving pid") || !strings.HasSuffix(out, "fake: drained and stopped\n") {
		t.Fatalf("child output missing banner or drain line:\n%s", out)
	}
}

func TestBootFailsWhenTheChildExitsBeforeItsBanner(t *testing.T) {
	err := fake(t, "exit", func(self string) {
		boot(self)
		t.Error("boot returned for a child that never printed a banner")
	})
	if err == nil || !strings.Contains(err.Error(), "did not report a listen address") ||
		!strings.Contains(err.Error(), "giving up before listening") {
		t.Fatalf("err = %v, want a boot failure quoting the child's output", err)
	}
}

func TestKillThenRestartOnTheSameAddress(t *testing.T) {
	err := fake(t, "serve", func(self string) {
		first := boot(self)
		url := first.url()
		before := get(url + "/")
		first.kill()
		if !first.exited() || first.cmd.ProcessState == nil {
			fatalf("kill returned before the child was reaped")
		}
		if _, err := http.Get(url + "/"); err == nil {
			fatalf("%s still answers after SIGKILL", url)
		}
		second := boot(self, "-addr", strings.TrimPrefix(url, "http://"))
		if second.url() != url {
			fatalf("restart bound %s, want %s", second.url(), url)
		}
		if after := get(url + "/"); after == before {
			fatalf("restarted daemon answered with the old pid %s", after)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFailPathReapsChildrenAndRemovesScratch(t *testing.T) {
	var procs []*proc
	var dir string
	err := fake(t, "serve", func(self string) {
		dir = scratch
		check(os.WriteFile(filepath.Join(scratch, "state"), []byte("x"), 0o644))
		procs = append(procs, boot(self), boot(self))
		check(errors.New("induced failure"))
		t.Error("check returned after a failure")
	})
	if err == nil || err.Error() != "induced failure" {
		t.Fatalf("err = %v, want the induced failure", err)
	}
	for _, p := range procs {
		if p.cmd.ProcessState == nil {
			t.Errorf("child %d still running after the failed scenario", p.cmd.Process.Pid)
		}
	}
	if _, statErr := os.Stat(dir); !os.IsNotExist(statErr) {
		t.Errorf("scratch dir %s survived the failed scenario (stat: %v)", dir, statErr)
	}
	if len(children) != 0 || scratch != "" {
		t.Errorf("harness state not reset: %d children, scratch %q", len(children), scratch)
	}
}
