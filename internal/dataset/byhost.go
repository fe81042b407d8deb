package dataset

import "gps/internal/asndb"

// HostGroup is one host's records: the unit the probabilistic model trains
// over, since every conditional probability in §5.2 is a statement about
// co-occurrence on a single host.
type HostGroup struct {
	IP      asndb.IP
	Records []Record
}

// ByHost returns the dataset's host runs in IP order, each group's
// records in port order. Records is a strict (IP, port) run, so a group
// is a sub-slice of it: read-only, with its capacity clipped at the
// host's end so an append copies instead of writing into the next host.
// ByHost writes nothing, so sharded runs may call it concurrently on one
// broadcast seed set.
func (d *Dataset) ByHost() []HostGroup {
	var out []HostGroup
	for i := 0; i < len(d.Records); {
		j := i + 1
		for j < len(d.Records) && d.Records[j].IP == d.Records[i].IP {
			j++
		}
		out = append(out, HostGroup{IP: d.Records[i].IP, Records: d.Records[i:j:j]})
		i = j
	}
	return out
}
