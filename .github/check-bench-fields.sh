#!/usr/bin/env bash
# Fails unless every FIELD of the JSON bench report FILE is present and
# non-zero. A zero means the work the field counts silently stopped
# happening, so it fails exactly like a missing field.
#
# Usage: .github/check-bench-fields.sh FILE FIELD...
set -u
file=$1
shift
for field in "$@"; do
  value=$(grep -o "\"$field\": [0-9.]*" "$file" | head -1 | grep -o '[0-9.]*$' || true)
  if [ -z "$value" ]; then
    echo "::error::$file is missing field $field"
    exit 1
  fi
  if ! awk -v v="$value" 'BEGIN { exit !(v > 0) }'; then
    echo "::error::$file field $field is zero ($value)"
    exit 1
  fi
  echo "$file: $field = $value"
done
