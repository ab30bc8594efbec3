package experiment

import "fmt"

// MinCapacitySearch is the cold form of MinCapacitySearcher.Search, the
// oracle the warm searcher is tested against: the same probe sequence, but
// every probe is a full, fresh RunOne to the horizon — no shared runner, no
// probe memo, no first-miss exit.
func MinCapacitySearch(s Spec, rep Replication, pf PolicyFactory, lo, maxHi, tol float64) (float64, bool, error) {
	if lo <= 0 || maxHi <= lo || tol <= 0 {
		return 0, false, fmt.Errorf("experiment: bad search bounds [%v, %v] tol %v", lo, maxHi, tol)
	}
	misses := func(c float64) (int, error) {
		res, err := RunOne(s, rep, c, pf, false)
		if err != nil {
			return 0, err
		}
		return res.Miss.Missed, nil
	}
	hi := lo
	for {
		m, err := misses(hi)
		if err != nil {
			return 0, false, err
		}
		if m == 0 {
			break
		}
		if hi >= maxHi {
			return 0, false, nil
		}
		hi = min(hi*2, maxHi)
	}
	if hi == lo {
		return lo, true, nil
	}
	loBound := hi / 2 // last known miss (or lo)
	if loBound < lo {
		loBound = lo
	}
	for hi-loBound > tol {
		mid := (loBound + hi) / 2
		m, err := misses(mid)
		if err != nil {
			return 0, false, err
		}
		if m == 0 {
			hi = mid
		} else {
			loBound = mid
		}
	}
	return hi, true, nil
}
