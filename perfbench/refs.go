package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"time"
)

// refs.json holds the reference digests of the seed-pinned workloads,
// recorded from the commit that introduced the benchmark (--record).
// Each digest is the SHA-256 of an output's JSON encoding, so any bit
// that changes in a figure, table or result changes its digest.
//
//go:embed refs.json
var refsJSON []byte

type refTable struct {
	Note string `json:"note"`
	// Paper maps the experiment seed to output name → digest.
	Paper map[string]map[string]string `json:"paper"`
	// Long maps round → run → digest.
	Long [][]string `json:"long"`
}

func loadRefs() (*refTable, error) {
	var t refTable
	if err := json.Unmarshal(refsJSON, &t); err != nil {
		return nil, fmt.Errorf("refs.json: %w", err)
	}
	return &t, nil
}

// digestOf is the hex SHA-256 of v's JSON encoding.
func digestOf(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// compareDigests checks every output digest against its reference.
func compareDigests(what string, got, want map[string]string) []error {
	var errs []error
	if len(want) == 0 {
		return []error{fmt.Errorf("%s: no reference recorded", what)}
	}
	for name, w := range want {
		if g, ok := got[name]; !ok {
			errs = append(errs, fmt.Errorf("%s %s: output missing", what, name))
		} else if g != w {
			errs = append(errs, fmt.Errorf("%s %s: digest %.12s, reference %.12s", what, name, g, w))
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			errs = append(errs, fmt.Errorf("%s %s: output has no reference", what, name))
		}
	}
	return errs
}

// recordRefs recomputes every reference digest and writes path.
func recordRefs(path string) error {
	t := refTable{
		Note:  "Reference digests recorded by `perfbench --record`. results/fig6.csv and fig7.csv in the repository are stale by up to 1.4e-15 and are not used as references.",
		Paper: map[string]map[string]string{},
	}
	t0 := time.Now()
	outs, _, err := paperPass(paperSpec(), nil, false, nil, nil)
	if err != nil {
		return err
	}
	d, err := outs.digests()
	if err != nil {
		return err
	}
	t.Paper[strconv.FormatUint(paperExpSeed, 10)] = d
	fmt.Fprintf(os.Stderr, "paper-figures seed %d recorded (%s)\n", paperExpSeed, time.Since(t0).Round(time.Millisecond))
	t0 = time.Now()
	for round := 0; round < longRounds; round++ {
		var ds []string
		for _, c := range longRound(round) {
			res, err := c.run(nil)
			if err != nil {
				return err
			}
			d, err := digestOf(res)
			if err != nil {
				return err
			}
			ds = append(ds, d)
		}
		t.Long = append(t.Long, ds)
	}
	fmt.Fprintf(os.Stderr, "long-horizon recorded (%s)\n", time.Since(t0).Round(time.Millisecond))
	b, err := json.MarshalIndent(t, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
