tr A-Z a-z | grep light | sed 's/light/dark/' | cut -d ' ' -f 1-3 | wc -l
