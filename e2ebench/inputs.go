package main

import (
	"fmt"
	"math/rand"
	"regexp"
	"strings"

	"repro/internal/aclgen"
	"repro/internal/policygen"
	"repro/internal/testnets"
)

// Inputs are drawn so that every seed gives the same amount of work and
// different inputs. The pair workloads take their base policy or ACL
// from the generator at a fixed seed (its size and range structure set
// the layers' cost) and the run's seed decides where the JunOS copy is
// made to differ. The fleet workloads stamp one template and the run's
// seed decides which devices carry an edit and what the edits are; the
// number of edited devices is fixed.

// baseSeed is the generator seed of the pair workloads' base text.
const baseSeed = 1

var termLine = regexp.MustCompile(`^\s*term t\d+ \{$`)

// termBlocks returns the [start, end) line ranges of the numbered terms.
func termBlocks(lines []string) [][2]int {
	var starts []int
	for i, l := range lines {
		if termLine.MatchString(l) {
			starts = append(starts, i)
		}
	}
	blocks := make([][2]int, len(starts))
	for k, s := range starts {
		end := len(lines)
		if k+1 < len(starts) {
			end = starts[k+1]
		}
		blocks[k] = [2]int{s, end}
	}
	return blocks
}

// flipTerms flips the action of n terms of a JunOS policy or filter:
// the first term when first is set (nothing precedes it, so flipping it
// is a behavioral difference), and seeded others. In each term the swaps
// are tried in order on its lines and the first that applies is made.
func flipTerms(text string, rng *rand.Rand, n int, first bool, swaps [][2]string) string {
	lines := strings.Split(text, "\n")
	blocks := termBlocks(lines)
	pick := rng.Perm(len(blocks))
	if first {
		pick = []int{0}
		for _, b := range rng.Perm(len(blocks) - 1) {
			pick = append(pick, b+1)
		}
	}
	for _, b := range pick[:min(n, len(blocks))] {
	term:
		for _, sw := range swaps {
			for i := blocks[b][0]; i < blocks[b][1]; i++ {
				if strings.TrimSpace(lines[i]) == sw[0] {
					lines[i] = strings.Replace(lines[i], sw[0], sw[1], 1)
					break term
				}
			}
		}
	}
	return strings.Join(lines, "\n")
}

// rmPairText is the rm-pair input: a policygen route-map pair with five
// terms of the JunOS copy flipped between accept and reject, the first
// and four seeded ones. A later term may be shadowed by earlier ones, so
// only the first flip is sure to differ.
func rmPairText(seed int64, clauses int) pairText {
	p := policygen.Generate(policygen.Params{Seed: baseSeed, Clauses: clauses})
	rng := rand.New(rand.NewSource(seed))
	return pairText{p.CiscoText, flipTerms(p.JuniperText, rng, 5, true,
		[][2]string{{"then reject;", "then accept;"}, {"accept;", "reject;"}})}
}

// aclPairText is the acl-pair input: an aclgen ACL pair with ten seeded
// terms of the JunOS copy flipped between accept and discard. Every
// generated rule guards its own destination, so each flip is a
// behavioral difference.
func aclPairText(seed int64, rules int) pairText {
	p := aclgen.Generate(aclgen.Params{Seed: baseSeed, Rules: rules})
	rng := rand.New(rand.NewSource(seed))
	return pairText{p.CiscoText, flipTerms(p.JuniperText, rng, 10, false,
		[][2]string{{"then accept;", "then discard;"}, {"then discard;", "then accept;"}})}
}

// editor makes seeded semantic edits to a device of the single fleet
// template. No two edits of one editor are alike (up to 10240 edits), so
// every edited text is new to the program.
type editor struct{ n int }

// newEditor starts the edit values at a seeded offset.
func newEditor(seed int64) *editor {
	return &editor{n: rand.New(rand.NewSource(seed)).Intn(1000) * 3}
}

// route adds a static route: the local drift a fleet's mutated devices
// carry, as in testnets.Fleet.
func (e *editor) route(text string) string {
	k := e.n
	e.n++
	return text + fmt.Sprintf("ip route 10.%d.%d.0 255.255.255.0 10.128.1.254\n", 160+k/256%40, k%256)
}

// edit cycles through adding a static route, changing the customer
// local-preference and rewriting the exported community.
func (e *editor) edit(text string) string {
	k := e.n
	switch k % 3 {
	case 0:
		return e.route(text)
	case 1:
		e.n++
		return strings.Replace(text, " set local-preference 110\n",
			fmt.Sprintf(" set local-preference %d\n", 1000+k%10240), 1)
	default:
		e.n++
		return strings.Replace(text, " set community 65000:200\n",
			fmt.Sprintf(" set community 65000:%d\n", 1000+k%10240), 1)
	}
}

// fleetMembers stamps devices copies of the single template and gives
// exactly mutants of them, chosen by the seed, a static route each.
func fleetMembers(seed int64, devices, mutants int, ed *editor) []testnets.FleetMember {
	members := testnets.Fleet(testnets.FleetParams{Devices: devices, Templates: 1, Seed: seed})
	for _, i := range rand.New(rand.NewSource(seed)).Perm(devices)[:mutants] {
		members[i].Text = ed.route(members[i].Text)
		members[i].Mutated = true
	}
	return members
}
