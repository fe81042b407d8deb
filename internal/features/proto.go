package features

// Protocol identifies the application-layer protocol a service speaks.
// GPS's feature set spans the 15 TCP protocols for which Censys exposes a
// banner (§5.2); ProtocolUnknown covers everything else.
type Protocol uint8

// The 15 banner-bearing protocols of Table 1, plus Unknown.
const (
	ProtocolUnknown Protocol = iota
	ProtocolHTTP
	ProtocolTLS
	ProtocolSSH
	ProtocolVNC
	ProtocolSMTP
	ProtocolFTP
	ProtocolIMAP
	ProtocolPOP3
	ProtocolCWMP
	ProtocolTelnet
	ProtocolPPTP
	ProtocolMySQL
	ProtocolMemcached
	ProtocolMSSQL
	ProtocolIPMI

	numProtocols
)

// NumProtocols is the number of named protocols, excluding Unknown.
const NumProtocols = int(numProtocols) - 1

var protoNames = [...]string{
	ProtocolUnknown:   "unknown",
	ProtocolHTTP:      "http",
	ProtocolTLS:       "tls",
	ProtocolSSH:       "ssh",
	ProtocolVNC:       "vnc",
	ProtocolSMTP:      "smtp",
	ProtocolFTP:       "ftp",
	ProtocolIMAP:      "imap",
	ProtocolPOP3:      "pop3",
	ProtocolCWMP:      "cwmp",
	ProtocolTelnet:    "telnet",
	ProtocolPPTP:      "pptp",
	ProtocolMySQL:     "mysql",
	ProtocolMemcached: "memcached",
	ProtocolMSSQL:     "mssql",
	ProtocolIPMI:      "ipmi",
}

// String returns the protocol's lowercase name.
func (p Protocol) String() string {
	if int(p) < len(protoNames) {
		return protoNames[p]
	}
	return "unknown"
}
