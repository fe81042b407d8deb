// Package features defines the feature vocabulary GPS uses to predict
// service presence. The paper (Table 1) uses 25 features spanning three
// layers: one transport-layer feature (the protocol running on a port), 22
// application-layer features (banners, certificates, keys, version strings
// across the 15 TCP protocols Censys exposes), and two network-layer
// features (the host's /16 subnetwork and its ASN).
//
// A feature is identified by a Key and carries a string Value. Keys are
// stable small integers so they can be embedded in map keys cheaply.
package features

import (
	"cmp"
	"fmt"
	"slices"
)

// Key identifies one of GPS's feature families.
type Key uint8

// The 25 features of Table 1, in the paper's order.
const (
	// KeyNone is the zero Key; it marks an absent feature slot in
	// composite conditions and is never attached to a service.
	KeyNone Key = iota

	// Transport/application-layer features.
	KeyProtocol         // service protocol name (56 unique values in the paper)
	KeyTLSCertHash      // TLS certificate hash
	KeyTLSOrg           // TLS certificate organization
	KeyTLSSubject       // TLS certificate subject name
	KeyHTTPTitle        // HTTP HTML title
	KeyHTTPBodyHash     // HTTP body hash
	KeyHTTPServer       // HTTP Server header
	KeyHTTPHeader       // HTTP header fingerprint
	KeySSHHostKey       // SSH host key
	KeySSHBanner        // SSH banner
	KeyVNCDesktopName   // VNC desktop name
	KeySMTPBanner       // SMTP banner
	KeyFTPBanner        // FTP banner
	KeyIMAPBanner       // IMAP banner
	KeyPOP3Banner       // POP3 banner
	KeyCWMPHeader       // CWMP header
	KeyCWMPBodyHash     // CWMP body hash
	KeyTelnetBanner     // Telnet banner
	KeyPPTPVendor       // PPTP vendor
	KeyMySQLVersion     // MySQL server version
	KeyMemcachedVersion // Memcached server version
	KeyMSSQLVersion     // MSSQL server version
	KeyIPMIBanner       // IPMI banner

	// Network-layer features.
	KeySubnet16 // the IP's /16 subnetwork
	KeyASN      // the IP's autonomous system number

	// numKeys is the count of Table-1 keys including KeyNone. The
	// extended subnet keys below are candidates evaluated in Appendix C
	// (Table 4) but excluded from GPS's final 25-feature configuration.
	numKeys

	// Extended network-layer feature candidates (Appendix C).
	KeySubnet17
	KeySubnet18
	KeySubnet19
	KeySubnet20
	KeySubnet21
	KeySubnet22
	KeySubnet23

	numKeysExtended
)

// NumKeys is the number of Table-1 feature keys, excluding KeyNone.
const NumKeys = int(numKeys) - 1

var keyNames = [numKeysExtended]string{
	KeyNone:             "none",
	KeyProtocol:         "Protocol",
	KeyTLSCertHash:      "TLS Cert: Hash",
	KeyTLSOrg:           "TLS Cert: Organization",
	KeyTLSSubject:       "TLS Cert: Subject Name",
	KeyHTTPTitle:        "HTTP: HTML title",
	KeyHTTPBodyHash:     "HTTP: Body Hash",
	KeyHTTPServer:       "HTTP: Server",
	KeyHTTPHeader:       "HTTP: Header",
	KeySSHHostKey:       "SSH: Host Key",
	KeySSHBanner:        "SSH: Banner",
	KeyVNCDesktopName:   "VNC: Desktop Name",
	KeySMTPBanner:       "SMTP: Banner",
	KeyFTPBanner:        "FTP: Banner",
	KeyIMAPBanner:       "IMAP: Banner",
	KeyPOP3Banner:       "POP3: Banner",
	KeyCWMPHeader:       "CWMP: Header",
	KeyCWMPBodyHash:     "CWMP: Body Hash",
	KeyTelnetBanner:     "Telnet: Banner",
	KeyPPTPVendor:       "PPTP: Vendor",
	KeyMySQLVersion:     "MYSQL: Server Version",
	KeyMemcachedVersion: "Memcached: Server Version",
	KeyMSSQLVersion:     "MSSQL: Server Version",
	KeyIPMIBanner:       "IPMI: Banner",
	KeySubnet16:         "IP's /16 subnetwork",
	KeyASN:              "IP's ASN",
	KeySubnet17:         "IP's /17 subnetwork",
	KeySubnet18:         "IP's /18 subnetwork",
	KeySubnet19:         "IP's /19 subnetwork",
	KeySubnet20:         "IP's /20 subnetwork",
	KeySubnet21:         "IP's /21 subnetwork",
	KeySubnet22:         "IP's /22 subnetwork",
	KeySubnet23:         "IP's /23 subnetwork",
}

// String returns the paper's display name for the key.
func (k Key) String() string {
	if int(k) < len(keyNames) {
		return keyNames[k]
	}
	return fmt.Sprintf("Key(%d)", uint8(k))
}

// SubnetBits returns the prefix length of a subnet feature key and whether
// k is one.
func (k Key) SubnetBits() (uint8, bool) {
	switch {
	case k == KeySubnet16:
		return 16, true
	case k >= KeySubnet17 && k <= KeySubnet23:
		return 17 + uint8(k-KeySubnet17), true
	}
	return 0, false
}

// AllKeys returns the 25 Table-1 feature keys in the paper's order,
// excluding the Appendix C subnet candidates.
func AllKeys() []Key {
	keys := make([]Key, 0, NumKeys)
	for k := KeyProtocol; k < numKeys; k++ {
		keys = append(keys, k)
	}
	return keys
}

// CandidateNetworkKeys returns the Appendix C network-layer candidate set:
// ASN plus every subnet size from /16 through /23.
func CandidateNetworkKeys() []Key {
	return []Key{KeyASN, KeySubnet16, KeySubnet17, KeySubnet18, KeySubnet19,
		KeySubnet20, KeySubnet21, KeySubnet22, KeySubnet23}
}

// Value is a single observed feature value: a key plus its string payload.
type Value struct {
	Key Key
	Val string
}

// String renders the value as "Key=Val".
func (v Value) String() string { return v.Key.String() + "=" + v.Val }

// Set is the feature values attached to one service or host, ascending
// by key with at most one value per key: the order every model, codec and
// table reads them in. A service's set is shared, not copied, by every
// record and grab that observes the service, so a Set must not be
// mutated once attached.
type Set []Value

// NewSet makes vals a Set: sorted by key, keeping the last value of a
// repeated key, as assigning them to a map in order would. It reorders
// vals in place and returns a prefix of it.
func NewSet(vals ...Value) Set {
	// Reversed, a stable sort puts the last of a repeated key first,
	// which is the one Compact keeps.
	slices.Reverse(vals)
	slices.SortStableFunc(vals, func(a, b Value) int { return cmp.Compare(a.Key, b.Key) })
	return slices.CompactFunc(vals, func(a, b Value) bool { return a.Key == b.Key })
}
