"""Small helpers shared across subsystems."""
