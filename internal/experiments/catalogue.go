package experiments

// The catalogue indexes every experiment by the ID its Result carries. Each
// runner lives in the file of the paper section DESIGN.md §3 cites first
// for it: table1.go (Table 1), figures.go (Figures 1 and 2), premise.go
// (§1–§2), users.go (§3.1), services.go (§3.2), routes.go (§3.3) and
// related.go (§4 and related work). E1–E9 reproduce the paper's in-text
// claims; E10–E26 build its proposed-but-unbuilt directions and its named
// baselines, so their "Paper" column quotes the proposal text.

import (
	"fmt"
	"slices"
	"strings"
)

// Experiment is one row of the catalogue: the ID its Result carries and
// the function that produces it.
type Experiment struct {
	ID  string
	Run func(*Env) *Result
}

// Catalogue lists every experiment in EXPERIMENTS.md order.
var Catalogue = []Experiment{
	{"T1", (*Env).RunTable1},
	{"F1a", (*Env).RunFigure1a},
	{"F1b", (*Env).RunFigure1b},
	{"F2", (*Env).RunFigure2},
	{"E1", (*Env).RunE1},
	{"E2", (*Env).RunE2},
	{"E3", (*Env).RunE3},
	{"E4", (*Env).RunE4},
	{"E5", (*Env).RunE5},
	{"E6", (*Env).RunE6},
	{"E7", (*Env).RunE7},
	{"E8", (*Env).RunE8},
	{"E9", (*Env).RunE9},
	{"E10", (*Env).RunE10},
	{"E11", (*Env).RunE11},
	{"E12", (*Env).RunE12},
	{"E13", (*Env).RunE13},
	{"E14", (*Env).RunE14},
	{"E15", (*Env).RunE15},
	{"E16", (*Env).RunE16},
	{"E17", (*Env).RunE17},
	{"E18", (*Env).RunE18},
	{"E19", (*Env).RunE19},
	{"E20", (*Env).RunE20},
	{"E21", (*Env).RunE21},
	{"E22", (*Env).RunE22},
	{"E23", (*Env).RunE23},
	{"E24", (*Env).RunE24},
	{"E25", (*Env).RunE25},
	{"E26", (*Env).RunE26},
}

// RunAll executes every experiment in catalogue order.
func (e *Env) RunAll() []*Result {
	out := make([]*Result, len(Catalogue))
	for i, x := range Catalogue {
		out[i] = x.Run(e)
	}
	return out
}

// Select returns the catalogue rows with the given IDs, once each and in
// catalogue order whatever order ids is in. An ID the catalogue does not
// have is an error that names the ones it has.
func Select(ids []string) ([]Experiment, error) {
	picked := make([]bool, len(Catalogue))
	for _, id := range ids {
		i := slices.IndexFunc(Catalogue, func(x Experiment) bool { return x.ID == id })
		if i < 0 {
			valid := make([]string, len(Catalogue))
			for j, x := range Catalogue {
				valid[j] = x.ID
			}
			return nil, fmt.Errorf("unknown experiment %q (valid: %s)", id, strings.Join(valid, ", "))
		}
		picked[i] = true
	}
	var rows []Experiment
	for i, x := range Catalogue {
		if picked[i] {
			rows = append(rows, x)
		}
	}
	return rows, nil
}
