package config

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

// The enum types marshal as their table names so configuration files read
// naturally ("network": {"Kind": "ATAC+"}). UnmarshalJSON, not
// UnmarshalText: encoding/json skips UnmarshalText on null, and a null
// enum must be rejected like any other name outside the table.

// marshal encodes v as its table name.
func (t enumTable[T]) marshal(v T) ([]byte, error) { return json.Marshal(t.name(v)) }

// unmarshal decodes a table name into *v.
func (t enumTable[T]) unmarshal(b []byte, v *T) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	i := slices.Index(t.names, s)
	if i < 0 {
		return fmt.Errorf("config: unknown %s %q", t.what, s)
	}
	*v = T(i)
	return nil
}

func (k NetworkKind) MarshalJSON() ([]byte, error)    { return networkKinds.marshal(k) }
func (k *NetworkKind) UnmarshalJSON(b []byte) error   { return networkKinds.unmarshal(b, k) }
func (r ReceiveNet) MarshalJSON() ([]byte, error)     { return receiveNets.marshal(r) }
func (r *ReceiveNet) UnmarshalJSON(b []byte) error    { return receiveNets.unmarshal(b, r) }
func (p RoutingPolicy) MarshalJSON() ([]byte, error)  { return routingPolicies.marshal(p) }
func (p *RoutingPolicy) UnmarshalJSON(b []byte) error { return routingPolicies.unmarshal(b, p) }
func (c CoherenceKind) MarshalJSON() ([]byte, error)  { return coherenceKinds.marshal(c) }
func (c *CoherenceKind) UnmarshalJSON(b []byte) error { return coherenceKinds.unmarshal(b, c) }
func (f Flavor) MarshalJSON() ([]byte, error)         { return flavors.marshal(f) }
func (f *Flavor) UnmarshalJSON(b []byte) error        { return flavors.unmarshal(b, f) }

// ToJSON renders the configuration as indented JSON.
func (c Config) ToJSON() ([]byte, error) {
	return json.MarshalIndent(c, "", "  ")
}

// FromJSON parses a configuration, starting from Default() so omitted
// fields keep their defaults, and validates the result.
func FromJSON(data []byte) (Config, error) {
	c := Default()
	if err := json.Unmarshal(data, &c); err != nil {
		return c, fmt.Errorf("config: %w", err)
	}
	return c, c.Validate()
}

// LoadFile reads and parses a configuration file.
func LoadFile(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, fmt.Errorf("config: %w", err)
	}
	return FromJSON(data)
}

// SaveFile writes the configuration as JSON.
func (c Config) SaveFile(path string) error {
	data, err := c.ToJSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
