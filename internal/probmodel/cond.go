// Package probmodel implements GPS's probabilistic model (§5.2): the four
// families of conditional probabilities between an open port and the
// features of another service on the same host.
//
//	Expression 4:  P(PortA | PortB)                      transport
//	Expression 5:  P(PortA | PortB, App_PortB)           transport+application
//	Expression 6:  P(PortA | PortB, Net_IP)              transport+network
//	Expression 7:  P(PortA | PortB, App_PortB, Net_IP)   all three
//
// Each probability is a simple ratio of host counts: of the hosts in the
// seed set exhibiting the condition, what fraction also had PortA open
// (the computation GPS runs on BigQuery).
//
// Counting is done on integers. Dict.Compile, the one compiler, interns
// every distinct condition of a record to a dense CondID of a grow-only
// Dict, whose key is fixed-size and holds no string: the port, the two
// feature keys, the application value as an index into the Dict's table
// of distinct values, and the network value as the subnet's network
// address or the AS number itself. A record's ids come in the families'
// order (T, then TA by feature key, then TN by configured network key,
// then TAN); their numbering is the Dict's history and reaches no
// output. Build compiles its hosts under a fresh Dict; Recompile compiles
// only the records an earlier run lacks or holds changed. Compiled.Build
// counts hosts per condition and per (condition, other open port) into
// flat arrays indexed by CondID and stores each seed service's most
// predictive condition on its host, the step the priors and MPF lists
// share. priors and predict read conditions by id (SeedBest, Resolve,
// ProbID) and never see a string.
//
// Strings live at the edges: Cond is the display form of a condition, with
// the banner, "10.0.0.0/16" and "AS7" spelled out, for tables, tests and
// experiments. Model.Cond renders an id into one, and BestCondForHost
// returns one.
package probmodel

import (
	"fmt"

	"gps/internal/features"
)

// Family identifies one of the four conditional-probability families.
type Family uint8

// The families, bit-encodable for configuration.
const (
	FamilyT   Family = iota // Expression 4: port only
	FamilyTA                // Expression 5: port + application feature
	FamilyTN                // Expression 6: port + network feature
	FamilyTAN               // Expression 7: port + application + network
)

// FamilySet is a bitmask of enabled families.
type FamilySet uint8

// Has reports whether the family is enabled.
func (s FamilySet) Has(f Family) bool { return s&(1<<f) != 0 }

// With returns the set with f enabled.
func (s FamilySet) With(f Family) FamilySet { return s | 1<<f }

// AllFamilies enables every family (GPS's default configuration).
const AllFamilies = FamilySet(1<<FamilyT | 1<<FamilyTA | 1<<FamilyTN | 1<<FamilyTAN)

// Cond is one condition tuple in display form: the right-hand side of a
// conditional probability. Port is always present (PortB); the application
// and network slots are optional and determine the family. The model
// counts by CondID; a Cond is what an id renders to.
type Cond struct {
	Port   uint16
	AppKey features.Key // KeyNone when the family has no application slot
	AppVal string
	NetKey features.Key // KeyNone when the family has no network slot
	NetVal string
}

// TupleKind identifies the feature-key shape of a condition without its
// concrete values — e.g., "(Port, Port_Protocol)" or "(Port, Port_ASN,
// Port_HTTP-Body-Hash)". Table 3 aggregates predictions by tuple kind.
type TupleKind struct {
	AppKey features.Key
	NetKey features.Key
}

// Kind returns the condition's tuple kind.
func (c Cond) Kind() TupleKind { return TupleKind{AppKey: c.AppKey, NetKey: c.NetKey} }

// String renders the kind in Table 3's style.
func (k TupleKind) String() string {
	switch {
	case k.AppKey != features.KeyNone && k.NetKey != features.KeyNone:
		return fmt.Sprintf("(Port, Port_%s, Port_%s)", k.NetKey, k.AppKey)
	case k.AppKey != features.KeyNone:
		return fmt.Sprintf("(Port, Port_%s)", k.AppKey)
	case k.NetKey != features.KeyNone:
		return fmt.Sprintf("(Port, Port_%s)", k.NetKey)
	default:
		return "Port"
	}
}

// DefaultNetKeys is GPS's production network feature set: Appendix C finds
// the /16 subnetwork and the ASN most predictive and drops the rest.
func DefaultNetKeys() []features.Key {
	return []features.Key{features.KeySubnet16, features.KeyASN}
}
