package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

func TestValidate(t *testing.T) {
	for _, c := range []struct {
		trh, rate, banks int
		ok               bool
	}{
		{4800, 6, 1, true},
		{4800, 6, 16, true},
		{6, 6, 1, true}, // T_S = 1
		{1, 1, 1, true},
		{4800, 0, 1, false},  // divide by zero
		{4800, -3, 1, false}, // negative T_S
		{4, 6, 1, false},     // T_S = 0
		{5, 6, 1, false},
		{-4800, 6, 1, false},
		{4800, 6, 0, false},
		{4800, 6, -2, false},
	} {
		err := validate(c.trh, c.rate, c.banks)
		if (err == nil) != c.ok {
			t.Errorf("validate(trh=%d, rate=%d, banks=%d) = %v, want ok=%v", c.trh, c.rate, c.banks, err, c.ok)
		}
	}
}

// TestMainRejectsUndefinedModels runs the command itself on the inputs
// that used to panic or print a garbage k, and requires a usage message
// and exit status 2 instead.
func TestMainRejectsUndefinedModels(t *testing.T) {
	if os.Getenv("ROWSWAP_ATTACK_MAIN") == "1" {
		os.Args = append([]string{"rowswap-attack"}, strings.Fields(os.Getenv("ROWSWAP_ATTACK_ARGS"))...)
		main()
		return
	}
	for _, args := range []string{"-rate 0", "-trh 4 -rate 6", "-banks 0"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestMainRejectsUndefinedModels$")
		cmd.Env = append(os.Environ(), "ROWSWAP_ATTACK_MAIN=1", "ROWSWAP_ATTACK_ARGS="+args)
		out, err := cmd.CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Errorf("%s: err = %v, want exit status 2\n%s", args, err, out)
			continue
		}
		if !strings.Contains(string(out), "Usage of") || strings.Contains(string(out), "panic:") {
			t.Errorf("%s: want a usage message and no panic, got\n%s", args, out)
		}
	}
}
