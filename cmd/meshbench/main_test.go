package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRejectsBadInput: every bad flag value exits 2 with a message on
// stderr before any simulation runs, so nothing reaches stdout.
func TestRejectsBadInput(t *testing.T) {
	for _, c := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-exp", "ablation", "-rps", "0"}, "-rps must be positive"},
		{[]string{"-measure", "-1s"}, "-measure must be positive"},
		{[]string{"-warmup", "-1s"}, "-warmup must be positive"},
		{[]string{"-exp", "ctrlscale", "-subs", "5"}, "-subs must be 0 (the full fleet) or a positive multiple of 20"},
		{[]string{"-exp", "ctrlscale", "-subs", "210"}, "-subs must be 0 (the full fleet) or a positive multiple of 20"},
		{[]string{"-exp", "ctrlscale", "-subs", "-20"}, "-subs must be 0 (the full fleet) or a positive multiple of 20"},
		{[]string{"-exp", "fidelity", "-zones", "-1"}, "-zones must be >= 0"},
		{[]string{"-exp", "nope"}, `unknown experiment "nope"`},
		{[]string{"-levels", "10,x"}, `bad RPS level "x"`},
		{[]string{"-fidelity", "quantum"}, "quantum"},
	} {
		t.Run(strings.Join(c.args, " "), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != 2 {
				t.Errorf("exit %d, want 2", code)
			}
			if !strings.Contains(stderr.String(), c.msg) {
				t.Errorf("stderr %q, want it to contain %q", stderr.String(), c.msg)
			}
			if stdout.Len() != 0 {
				t.Errorf("wrote %q to stdout before rejecting", stdout.String())
			}
		})
	}
}
