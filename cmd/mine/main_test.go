package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the tests run the real CLI: with MINE_TEST_MAIN set, the
// test binary acts as the mine command itself.
func TestMain(m *testing.M) {
	if os.Getenv("MINE_TEST_MAIN") == "1" {
		os.Exit(realMain())
	}
	os.Exit(m.Run())
}

// runMine runs the CLI with args and returns its stdout and exit code.
func runMine(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MINE_TEST_MAIN=1")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return stdout.String(), 0
	case errors.As(err, &exit):
		return stdout.String(), exit.ExitCode()
	default:
		t.Fatal(err)
		return "", 0
	}
}

func TestListLimit(t *testing.T) {
	// K4 holds four triangles.
	path := filepath.Join(t.TempDir(), "k4.txt")
	if err := os.WriteFile(path, []byte("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		limit     string
		wantLines int
		wantCode  int
	}{
		{"0", 0, 0},
		{"2", 2, 0},
		{"20", 4, 0},
		{"-3", 0, 2},
	}
	for _, c := range cases {
		out, code := runMine(t, "-graph", path, "-pattern", "tc", "-list", "-limit", c.limit)
		lines := 0
		if out != "" {
			lines = strings.Count(out, "\n")
		}
		if code != c.wantCode || lines != c.wantLines {
			t.Errorf("-limit %s: exit %d with %d embeddings listed, want exit %d with %d\n%s",
				c.limit, code, lines, c.wantCode, c.wantLines, out)
		}
	}
}
