package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// FederatedSource is one parsed exposition entering a federation merge.
// Peer is the value stamped onto every sample as a `peer` label. A
// sample's own `peer` label moves to `exported_peer` first (the
// Prometheus federation convention), so a coordinator federating itself
// — whose own exposition holds peer-labeled fleet series — never
// produces a duplicate label; an `exported_peer` label it already had
// moves on to `exported_exported_peer`, and so on. Shifting the whole
// chain keeps distinct samples distinct: m{peer="a"} and
// m{exported_peer="a"} must not merge into one series. A
// source with an empty Peer is merged verbatim: no relabeling, used for
// synthetic families (the federator's own scrape-health series) whose
// samples carry their peer labels already.
type FederatedSource struct {
	Peer string
	Exp  *Exposition
}

// WriteFederated merges the sources into one Prometheus text exposition:
//
//   - every family's HELP (first non-empty wins) and TYPE appear exactly
//     once, TYPE before any of the family's samples;
//   - every sample of every source is preserved, relabeled with its
//     source's peer; nothing is dropped silently — a family whose TYPE
//     conflicts across sources is an error, because silently dropping a
//     live peer's series would defeat the point of federation;
//   - the output re-parses under the strict ParseExposition (the peer
//     label makes cross-source series collisions impossible, and
//     per-series histogram invariants are peer-local, hence preserved).
//
// Families render sorted by name; within a family, samples keep source
// order then document order, which is deterministic for fixed inputs.
func WriteFederated(w io.Writer, sources []FederatedSource) error {
	type fam struct {
		name    string
		kind    Kind
		help    string
		samples []string // fully rendered sample lines
	}
	fams := make(map[string]*fam)
	var order []string
	for _, src := range sources {
		if src.Exp == nil {
			continue
		}
		for name, kind := range src.Exp.Types {
			f, ok := fams[name]
			if !ok {
				f = &fam{name: name, kind: kind, help: src.Exp.Help[name]}
				fams[name] = f
				order = append(order, name)
				continue
			}
			if f.kind != kind {
				return fmt.Errorf("obs: federation: family %q is %s on one peer and %s on %q",
					name, f.kind, kind, src.Peer)
			}
			if f.help == "" {
				f.help = src.Exp.Help[name]
			}
		}
		for _, s := range src.Exp.Samples {
			base, ok := familyOf(src.Exp.Types, s.Name)
			if !ok {
				return fmt.Errorf("obs: federation: sample %q of %q has no family", s.Name, src.Peer)
			}
			fams[base].samples = append(fams[base].samples, renderFederatedSample(s, src.Peer))
		}
	}
	sort.Strings(order)
	bw := bufio.NewWriter(w)
	for _, name := range order {
		f := fams[name]
		if len(f.samples) == 0 {
			continue
		}
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for _, line := range f.samples {
			bw.WriteString(line)
		}
	}
	return bw.Flush()
}

// isPeerLabel reports whether name is `peer` behind zero or more
// `exported_` prefixes.
func isPeerLabel(name string) bool {
	for strings.HasPrefix(name, "exported_") {
		name = name[len("exported_"):]
	}
	return name == "peer"
}

// renderFederatedSample renders one sample line with the peer label
// applied (or verbatim when peer is empty), labels sorted by name.
func renderFederatedSample(s Sample, peer string) string {
	labels := make(map[string]string, len(s.Labels)+1)
	for k, v := range s.Labels {
		if peer != "" && isPeerLabel(k) {
			k = "exported_" + k
		}
		labels[k] = v
	}
	if peer != "" {
		labels["peer"] = peer
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(s.Name)
	if len(keys) > 0 {
		b.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `%s="%s"`, k, escapeLabel(labels[k]))
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatValue(s.Value))
	b.WriteByte('\n')
	return b.String()
}
