// Command rowswap-attack evaluates the Juggernaut and random-guess
// attack models against RRS and SRS for arbitrary parameters.
//
// Examples (rounds default to the optimum, as in §III-C):
//
//	rowswap-attack -defense rrs -trh 4800 -rate 6
//	rowswap-attack -defense srs -trh 4800 -rate 6
//	rowswap-attack -defense rrs -trh 4800 -rate 6 -rounds 1100 -mc 1000
//	rowswap-attack -defense rrs -trh 3100 -rate 10 -ddr5
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/attack"
	"repro/internal/config"
)

func main() {
	defense := flag.String("defense", "rrs", "defense under attack: rrs or srs")
	trh := flag.Int("trh", 4800, "Row Hammer threshold T_RH")
	rate := flag.Int("rate", 6, "swap rate T_RH/T_S")
	rounds := flag.Int("rounds", -1, "biasing attack rounds N (-1 = optimize)")
	untargeted := flag.Bool("untargeted", false, "use the untargeted random-guess attack (Fig. 1a)")
	banks := flag.Int("banks", 1, "banks attacked simultaneously (§III-C)")
	openPage := flag.Bool("openpage", false, "open-page controller policy (§VIII-3)")
	ddr5 := flag.Bool("ddr5", false, "DDR5 timing: 2x refresh rate (§VIII-5)")
	mcIters := flag.Int("mc", 0, "validate with this exact Monte-Carlo trial count")
	trialsMult := flag.Int("trials", 0,
		fmt.Sprintf("Monte-Carlo trial multiplier: run N x %d trials (overrides -mc)", attack.DefaultTrials))
	seed := flag.Uint64("seed", 42, "Monte-Carlo root seed")
	flag.Parse()
	if err := validate(*trh, *rate, *banks); err != nil {
		fmt.Fprintf(os.Stderr, "rowswap-attack: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	var m attack.Model
	switch *defense {
	case "rrs":
		m = attack.NewJuggernautRRS(*trh, *rate)
	case "srs":
		m = attack.NewJuggernautSRS(*trh, *rate)
	default:
		fmt.Fprintf(os.Stderr, "unknown defense %q\n", *defense)
		os.Exit(2)
	}
	m.Untargeted = *untargeted
	m.Banks = *banks
	if *openPage {
		m.ACTPeriodNS = 60
	}
	if *ddr5 {
		m.Timing = config.DDR5()
	}

	n := *rounds
	var tt float64
	if n < 0 {
		n, tt = m.BestRounds()
		fmt.Printf("optimal attack rounds N = %d\n", n)
	} else {
		tt = m.TimeToBreakNS(n)
	}
	fmt.Printf("defense=%s TRH=%d swap-rate=%d (T_S=%d) rounds=%d\n",
		m.Defense, *trh, *rate, m.TS(), n)
	fmt.Printf("aggressor ACTs after rounds: %.0f\n", m.AggressorACTs(n))
	fmt.Printf("required correct guesses k : %d\n", m.RequiredGuesses(n))
	fmt.Printf("guesses per window G       : %d\n", m.Guesses(n))
	fmt.Printf("per-window success prob    : %.3g\n", m.EpochSuccessProb(n))
	fmt.Printf("expected time-to-break     : %s\n", fmtTime(tt))

	trials := *mcIters
	if *trialsMult > 0 {
		trials = *trialsMult * attack.DefaultTrials
	}
	if trials > 0 {
		res := attack.MonteCarlo(m, n, trials, *seed)
		switch {
		case res.Skipped:
			fmt.Println("monte-carlo: skipped (attack infeasible: fewer guesses than required hits)")
		case res.Tail:
			fmt.Printf("monte-carlo (%d trials)    : %s (closed-form tail sample)\n",
				res.Iterations, fmtTime(res.MeanTimeNS))
		default:
			fmt.Printf("monte-carlo (%d trials)    : %s (%.0f epochs avg, stderr %s)\n",
				res.Iterations, fmtTime(res.MeanTimeNS), res.MeanEpochs, fmtTime(res.StdErrTimeNS))
		}
	}
}

// validate rejects parameters the attack model is undefined for: a swap
// rate below 1, a threshold below the swap rate (T_S = T_RH / rate
// would be 0) and fewer than one attacked bank.
func validate(trh, rate, banks int) error {
	switch {
	case rate < 1:
		return fmt.Errorf("-rate %d: the swap rate must be at least 1", rate)
	case trh < rate:
		return fmt.Errorf("-trh %d below -rate %d: the swap threshold T_S = T_RH/rate must be at least 1", trh, rate)
	case banks < 1:
		return fmt.Errorf("-banks %d: at least one bank must be attacked", banks)
	}
	return nil
}

func fmtTime(ns float64) string {
	switch {
	case ns >= 2*config.Year:
		return fmt.Sprintf("%.2f years", ns/config.Year)
	case ns >= config.Day:
		return fmt.Sprintf("%.2f days", ns/config.Day)
	case ns >= config.Hour:
		return fmt.Sprintf("%.2f hours", ns/config.Hour)
	case ns >= config.Second:
		return fmt.Sprintf("%.2f s", ns/config.Second)
	default:
		return fmt.Sprintf("%.2f ms", ns/config.Millisecond)
	}
}
