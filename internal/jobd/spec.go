// Package jobd is the sweep job daemon behind gcsimd: it accepts sweep
// specs, expands them into cells, schedules the cells across a bounded
// worker pool, and persists every cell outcome through a
// store.Repository. Determinism does the heavy lifting — a cell is a
// pure function of its config, so the daemon can dedupe identical
// cells across jobs, serve stored cells without re-running them, and
// resume a killed sweep bit-identically by re-enqueuing only the cells
// whose facts are missing from the store.
package jobd

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"gcs/internal/sim"
)

// MaxCells caps a single spec's grid. The cap is checked before
// expansion, so a hostile spec cannot allocate an unbounded cell list.
const MaxCells = 65536

// SweepSpec is the wire form of one sweep job: the same scenario grid
// `gcsim sweep` builds from its flags — node counts x topologies x
// drivers x churn processes — plus the shared per-cell physics. Cells
// expands it with exactly the CLI's grid semantics, so a spec submitted
// to the daemon and the same flags run locally name, seed, and order
// their cells identically.
type SweepSpec struct {
	Ns      []int    `json:"ns"`
	Topos   []string `json:"topos"`
	Drivers []string `json:"drivers"`
	Churns  []string `json:"churns"`
	// Seed is the base seed; each cell derives its own with
	// sim.CellSeed(Seed, index).
	Seed     uint64        `json:"seed"`
	Horizon  float64       `json:"horizon,omitempty"`
	Rho      float64       `json:"rho,omitempty"`
	MaxDelay float64       `json:"max_delay,omitempty"`
	Beacon   float64       `json:"beacon,omitempty"`
	Sample   float64       `json:"sample,omitempty"`
	Interval float64       `json:"interval,omitempty"`
	Parallel bool          `json:"parallel,omitempty"`
	Shards   int           `json:"shards,omitempty"`
	Faults   sim.FaultSpec `json:"faults"`
}

// DecodeSpec parses a spec from JSON. Unknown fields and trailing data
// are rejected — a typoed field name silently ignored would run the
// wrong sweep.
func DecodeSpec(data []byte) (SweepSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s SweepSpec
	if err := dec.Decode(&s); err != nil {
		return SweepSpec{}, fmt.Errorf("jobd: bad sweep spec: %w", err)
	}
	if dec.More() {
		return SweepSpec{}, fmt.Errorf("jobd: trailing data after sweep spec")
	}
	return s, nil
}

// normalized trims and lowercases the list fields so cosmetic spelling
// differences neither change the job's identity nor its cells.
func (s SweepSpec) normalized() SweepSpec {
	s.Ns = append([]int(nil), s.Ns...)
	s.Topos = cleanList(s.Topos)
	s.Drivers = cleanList(s.Drivers)
	s.Churns = cleanList(s.Churns)
	return s
}

func cleanList(in []string) []string {
	out := make([]string, 0, len(in))
	for _, v := range in {
		if v = strings.ToLower(strings.TrimSpace(v)); v != "" {
			out = append(out, v)
		}
	}
	return out
}

// CanonicalJSON is the spec's identity encoding: the JSON of its
// normalized form. It is what JobRecord.Spec stores, and what ID
// hashes, so a resumed job re-derives the same ID it was admitted
// under.
func (s SweepSpec) CanonicalJSON() ([]byte, error) {
	data, err := json.Marshal(s.normalized())
	if err != nil {
		return nil, fmt.Errorf("jobd: encode sweep spec: %w", err)
	}
	return data, nil
}

// ID is the job's deterministic identity: the first 16 hex digits of
// the SHA-256 of the canonical spec JSON. Submitting the same spec
// twice therefore lands on the same job.
func (s SweepSpec) ID() (string, error) {
	data, err := s.CanonicalJSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8]), nil
}

// Cells expands the spec into its sweep cells with the CLI grid's exact
// semantics: loop order n -> topology -> driver -> churn; the rotating
// star ignores the topology spec (the churner builds its own stars), so
// it is emitted once per (n, driver) — on the first topology of the
// list — labeled "-"; every cell gets Workers=1 (the daemon already
// parallelizes across cells) and a seed derived from the base seed and
// its emitted index.
func (s SweepSpec) Cells() ([]sim.SweepCell, error) {
	s = s.normalized()
	if len(s.Ns) == 0 || len(s.Topos) == 0 || len(s.Drivers) == 0 || len(s.Churns) == 0 {
		return nil, fmt.Errorf("jobd: spec needs at least one n, topology, driver, and churn")
	}
	total := 1
	for _, l := range []int{len(s.Ns), len(s.Topos), len(s.Drivers), len(s.Churns)} {
		total *= l
		if total > MaxCells {
			return nil, fmt.Errorf("jobd: grid exceeds the %d-cell cap", MaxCells)
		}
	}
	var cells []sim.SweepCell
	for _, n := range s.Ns {
		for _, topoName := range s.Topos {
			for _, drvName := range s.Drivers {
				for _, churnName := range s.Churns {
					star := churnName == "rotatingstar"
					if star && topoName != s.Topos[0] {
						continue
					}
					cfg := sim.Config{
						N:           n,
						Horizon:     s.Horizon,
						Rho:         s.Rho,
						MaxDelay:    s.MaxDelay,
						SampleEvery: s.Sample,
						Parallel:    s.Parallel,
						Shards:      s.Shards,
						Workers:     1,
					}
					cfg.Node.BeaconEvery = s.Beacon
					drv, err := sim.ParseDriver(drvName, s.Interval)
					if err != nil {
						return nil, err
					}
					cfg.Driver = drv
					churn, err := sim.ParseChurn(churnName, n)
					if err != nil {
						return nil, err
					}
					cfg.Churn = churn
					cfg.Faults = s.Faults
					label := topoName
					if star {
						label = "-"
					} else {
						topo, err := sim.ParseTopology(topoName, n)
						if err != nil {
							return nil, err
						}
						cfg.Topology = topo
					}
					cfg.Seed = sim.CellSeed(s.Seed, len(cells))
					name := fmt.Sprintf("%s/%s/%s/n=%d", label, drvName, churnName, n)
					cells = append(cells, sim.SweepCell{Name: name, Cfg: cfg})
				}
			}
		}
	}
	return cells, nil
}

// Validate expands the spec and validates every cell config, so a bad
// spec is rejected whole at admission instead of failing cell by cell.
func (s SweepSpec) Validate() error {
	cells, err := s.Cells()
	if err != nil {
		return err
	}
	for i := range cells {
		if err := cells[i].Cfg.Validate(); err != nil {
			return fmt.Errorf("jobd: cell %d (%s): %w", i, cells[i].Name, err)
		}
	}
	return nil
}
