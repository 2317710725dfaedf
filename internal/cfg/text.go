package cfg

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// This file implements a small line-oriented text format for control-flow
// graphs, so the command-line tools can load user-provided programs:
//
//	# comment
//	block <name> <emin> <emax> [call=<func>]
//	edge <from> <to>
//	entry <name>
//	loop <header> <min> <max>
//
// Block references are by name; the entry defaults to the first block.
// call=<func> names a function the block invokes. It is only a label, kept
// in Block.Call and printed by Graph.DOT: the block's own <emin> <emax>
// must already include the callee's execution.

// parseFinite parses a float and rejects NaN and infinities, which
// strconv.ParseFloat happily accepts ("nan", "inf").
func parseFinite(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("non-finite value %q", s)
	}
	return v, nil
}

// Parse reads a graph in the text format.
func Parse(r io.Reader) (*Graph, error) {
	g := New()
	byName := make(map[string]BlockID)
	sc := bufio.NewScanner(r)
	lineNo := 0
	resolve := func(name string) (BlockID, error) {
		id, ok := byName[name]
		if !ok {
			return NoBlock, fmt.Errorf("cfg: line %d: unknown block %q", lineNo, name)
		}
		return id, nil
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "block":
			if len(fields) < 4 || len(fields) > 5 {
				return nil, fmt.Errorf("cfg: line %d: block needs name emin emax [call=f]", lineNo)
			}
			name := fields[1]
			if _, dup := byName[name]; dup {
				return nil, fmt.Errorf("cfg: line %d: duplicate block %q", lineNo, name)
			}
			emin, err := parseFinite(fields[2])
			if err != nil {
				return nil, fmt.Errorf("cfg: line %d: bad emin: %w", lineNo, err)
			}
			emax, err := parseFinite(fields[3])
			if err != nil {
				return nil, fmt.Errorf("cfg: line %d: bad emax: %w", lineNo, err)
			}
			b := Block{Name: name, EMin: emin, EMax: emax}
			if len(fields) == 5 {
				if !strings.HasPrefix(fields[4], "call=") {
					return nil, fmt.Errorf("cfg: line %d: expected call=<func>, got %q", lineNo, fields[4])
				}
				b.Call = strings.TrimPrefix(fields[4], "call=")
			}
			byName[name] = g.AddBlock(b)
		case "edge":
			if len(fields) != 3 {
				return nil, fmt.Errorf("cfg: line %d: edge needs from to", lineNo)
			}
			from, err := resolve(fields[1])
			if err != nil {
				return nil, err
			}
			to, err := resolve(fields[2])
			if err != nil {
				return nil, err
			}
			if err := g.AddEdge(from, to); err != nil {
				return nil, fmt.Errorf("cfg: line %d: %w", lineNo, err)
			}
		case "entry":
			if len(fields) != 2 {
				return nil, fmt.Errorf("cfg: line %d: entry needs a block name", lineNo)
			}
			id, err := resolve(fields[1])
			if err != nil {
				return nil, err
			}
			if err := g.SetEntry(id); err != nil {
				return nil, fmt.Errorf("cfg: line %d: %w", lineNo, err)
			}
		case "loop":
			if len(fields) != 4 {
				return nil, fmt.Errorf("cfg: line %d: loop needs header min max", lineNo)
			}
			id, err := resolve(fields[1])
			if err != nil {
				return nil, err
			}
			min, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("cfg: line %d: bad loop min: %w", lineNo, err)
			}
			max, err := strconv.Atoi(fields[3])
			if err != nil {
				return nil, fmt.Errorf("cfg: line %d: bad loop max: %w", lineNo, err)
			}
			g.LoopBounds[id] = Bound{Min: min, Max: max}
		default:
			return nil, fmt.Errorf("cfg: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g.Len() == 0 {
		return nil, fmt.Errorf("cfg: empty graph")
	}
	return g, nil
}
